package metadb

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentBuckets hammers distinct buckets from many goroutines —
// with per-bucket locking none of this may race or lose writes.
func TestConcurrentBuckets(t *testing.T) {
	db := New()
	const workers = 8
	const keys = 200
	for w := 0; w < workers; w++ {
		db.CreateBucket(fmt.Sprintf("bucket-%d", w))
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			b := db.Bucket(fmt.Sprintf("bucket-%d", w))
			for i := 0; i < keys; i++ {
				k := []byte(fmt.Sprintf("key-%04d", i))
				b.Put(k, []byte(fmt.Sprintf("val-%d-%d", w, i)))
				if _, ok := b.Get(k); !ok {
					t.Errorf("bucket-%d: key %s lost", w, k)
					return
				}
				if i%3 == 0 {
					b.Delete(k)
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		b := db.Bucket(fmt.Sprintf("bucket-%d", w))
		want := keys - (keys+2)/3
		if got := b.Len(); got != want {
			t.Errorf("bucket-%d: len = %d, want %d", w, got, want)
		}
	}
}

// TestConcurrentSharedBucket exercises one bucket from many goroutines with
// disjoint key ranges plus readers scanning throughout.
func TestConcurrentSharedBucket(t *testing.T) {
	db := New()
	b := db.CreateBucket("shared")
	const workers = 8
	const keys = 150
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				b.Put([]byte(fmt.Sprintf("w%02d-%04d", w, i)), []byte("v"))
			}
		}(w)
	}
	// Concurrent scans must observe a consistent tree at every instant.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			prev := []byte(nil)
			b.ForEach(func(k, v []byte) bool {
				if prev != nil && string(k) <= string(prev) {
					t.Errorf("scan out of order: %q after %q", k, prev)
					return false
				}
				prev = append(prev[:0], k...)
				return true
			})
		}
	}()
	wg.Wait()
	if got := b.Len(); got != workers*keys {
		t.Fatalf("len = %d, want %d", got, workers*keys)
	}
}

// TestPutIfAbsentRace races many goroutines inserting the same key: exactly
// one may win.
func TestPutIfAbsentRace(t *testing.T) {
	db := New()
	b := db.CreateBucket("race")
	const workers = 16
	var wg sync.WaitGroup
	wins := make(chan int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if b.PutIfAbsent([]byte("contested"), []byte(fmt.Sprintf("winner-%d", w))) {
				wins <- w
			}
		}(w)
	}
	wg.Wait()
	close(wins)
	var winners []int
	for w := range wins {
		winners = append(winners, w)
	}
	if len(winners) != 1 {
		t.Fatalf("got %d winners %v, want exactly 1", len(winners), winners)
	}
	val, ok := b.Get([]byte("contested"))
	if !ok || string(val) != fmt.Sprintf("winner-%d", winners[0]) {
		t.Fatalf("stored value %q does not match winner %d", val, winners[0])
	}
}

func TestPutIfAbsentSequential(t *testing.T) {
	db := New()
	b := db.CreateBucket("b")
	if !b.PutIfAbsent([]byte("k"), []byte("v1")) {
		t.Fatal("first PutIfAbsent should store")
	}
	if b.PutIfAbsent([]byte("k"), []byte("v2")) {
		t.Fatal("second PutIfAbsent should not store")
	}
	if v, _ := b.Get([]byte("k")); string(v) != "v1" {
		t.Fatalf("value = %q, want v1", v)
	}
}

// TestSnapshotUnderTraffic takes snapshots while writers are active; every
// snapshot must load into a structurally valid database. The writers spend
// tokens handed out before each pass, so a pass's cost is bounded however
// fast they are relative to the verifier.
func TestSnapshotUnderTraffic(t *testing.T) {
	db := New()
	b := db.CreateBucket("traffic")
	const writers, passes, opsPerPass = 4, 20, 400
	tokens := make(chan struct{}, opsPerPass)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := 0
			for range tokens {
				b.Put([]byte(fmt.Sprintf("w%d-%06d", w, i)), []byte("payload"))
				i++
			}
		}(w)
	}
	for i := 0; i < passes; i++ {
		refill(tokens)
		snap := db.Snapshot()
		restored, err := Load(snap)
		if err != nil {
			t.Fatalf("snapshot %d failed to load: %v", i, err)
		}
		rb := restored.Bucket("traffic")
		if rb == nil {
			t.Fatalf("snapshot %d lost bucket", i)
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
