package blobstore

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentPutGet drives puts, dedup hits, gets and releases from many
// goroutines and checks the aggregate accounting afterwards.
func TestConcurrentPutGet(t *testing.T) {
	s := New()
	const workers = 8
	const blobs = 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < blobs; i++ {
				// Half the blobs are shared across all workers (dedup
				// traffic), half are private.
				var data []byte
				if i%2 == 0 {
					data = []byte(fmt.Sprintf("shared-%04d", i))
				} else {
					data = []byte(fmt.Sprintf("private-%d-%04d", w, i))
				}
				id, _ := s.Put(data)
				got, ok := s.Get(id)
				if !ok || string(got) != string(data) {
					t.Errorf("worker %d: blob %d corrupted or lost", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	wantUnique := blobs/2 + workers*(blobs/2)
	if got := s.Len(); got != wantUnique {
		t.Fatalf("Len = %d, want %d", got, wantUnique)
	}
	// Every worker's put of a shared blob took one reference on it.
	for i := 0; i < blobs; i += 2 {
		if got := s.Refs(Sum([]byte(fmt.Sprintf("shared-%04d", i)))); got != workers {
			t.Fatalf("shared blob %d: Refs = %d, want %d", i, got, workers)
		}
	}

	// Shared blobs carry one reference per worker; release them all and the
	// store must drain to only private blobs.
	for i := 0; i < blobs; i += 2 {
		id := Sum([]byte(fmt.Sprintf("shared-%04d", i)))
		var rg sync.WaitGroup
		for w := 0; w < workers; w++ {
			rg.Add(1)
			go func() {
				defer rg.Done()
				if err := s.Release(id); err != nil {
					t.Error(err)
				}
			}()
		}
		rg.Wait()
		if s.Refs(id) != 0 {
			t.Fatalf("shared blob %d survived full release", i)
		}
	}
	if got := s.Len(); got != workers*(blobs/2) {
		t.Fatalf("after release Len = %d, want %d", got, workers*(blobs/2))
	}
}

// TestConcurrentTotalBytes checks byte accounting stays exact under
// concurrent put/release churn.
func TestConcurrentTotalBytes(t *testing.T) {
	s := New()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				data := []byte(fmt.Sprintf("w%d-i%d-%s", w, i, "padpadpadpad"))
				id, _ := s.Put(data)
				if i%2 == 1 {
					if err := s.Release(id); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	var want int64
	for _, id := range s.IDs() {
		n, _ := s.Size(id)
		want += n
	}
	if got := s.TotalBytes(); got != want {
		t.Fatalf("TotalBytes = %d, want %d (sum of live blobs)", got, want)
	}
}

// TestSnapshotUnderConcurrentTraffic snapshots while writers run; every
// snapshot must load cleanly with content-verified IDs. The writers spend
// tokens handed out before each pass, so a pass's cost is bounded however
// fast they are relative to the verifier.
func TestSnapshotUnderConcurrentTraffic(t *testing.T) {
	s := New()
	const writers, passes, opsPerPass = 4, 20, 400
	tokens := make(chan struct{}, opsPerPass)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := 0
			for range tokens {
				s.Put([]byte(fmt.Sprintf("traffic-%d-%d", w, i)))
				i++
			}
		}(w)
	}
	for i := 0; i < passes; i++ {
		refill(tokens)
		snap, err := Snapshot(s)
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		restored, err := Load(snap)
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		if restored.TotalBytes() < 0 {
			t.Fatalf("snapshot %d: negative byte accounting", i)
		}
	}
	close(tokens)
	wg.Wait()
}

// refill tops a token channel up to its capacity without blocking.
func refill(tokens chan struct{}) {
	for {
		select {
		case tokens <- struct{}{}:
		default:
			return
		}
	}
}
