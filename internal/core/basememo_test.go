package core

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"expelliarmus/internal/blobstore"
	"expelliarmus/internal/builder"
	"expelliarmus/internal/catalog"
	"expelliarmus/internal/vmirepo"
)

// retrieveBytes retrieves name on s into a buffer.
func retrieveBytes(t *testing.T, s *System, name string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, _, err := s.RetrieveTo(&buf, name); err != nil {
		t.Fatalf("retrieve %s: %v", name, err)
	}
	return buf.Bytes()
}

// missBytes retrieves name on s with an empty base memo, so the retrieval
// copies, launches and resets its base itself.
func missBytes(t *testing.T, s *System, name string) []byte {
	t.Helper()
	s.bases = newSlotMemo[blobstore.ID, resetBase](baseMemoSlots)
	return retrieveBytes(t, s, name)
}

// hitsMatchMisses publishes every catalog template on the memory and the
// disk backend, retrieves each twice through one system's memos and
// requires the bytes of a second system on which empty clears a memo
// before every retrieval. check then inspects the first system.
func hitsMatchMisses(t *testing.T, empty func(*System), check func(*testing.T, *System)) {
	for _, backend := range []string{"memory", "disk"} {
		t.Run(backend, func(t *testing.T) {
			repo := vmirepo.New(testDev)
			if backend == "disk" {
				var err error
				if repo, err = vmirepo.OpenAt(t.TempDir(), testDev); err != nil {
					t.Fatal(err)
				}
				defer repo.Close()
			}
			s := NewSystemWithRepo(repo, testDev, Options{})
			b := builder.New(catalog.NewUniverse())
			tpls := catalog.Paper19()
			for _, tpl := range tpls {
				if _, err := s.Publish(buildImage(t, b, tpl.Name)); err != nil {
					t.Fatal(err)
				}
			}
			miss := NewSystemWithRepo(repo, testDev, Options{})
			for round := range 2 {
				for _, tpl := range tpls {
					empty(miss)
					want := retrieveBytes(t, miss, tpl.Name)
					if got := retrieveBytes(t, s, tpl.Name); !bytes.Equal(got, want) {
						t.Fatalf("round %d: %s through the memo differs from its memo miss", round, tpl.Name)
					}
				}
			}
			check(t, s)
		})
	}
}

// TestBaseMemoHitMatchesMiss: every catalog template, retrieved through a
// base memo that the first retrieval filled, is byte for byte the
// retrieval that ran lines 3–4 itself — on the memory and the disk backend.
func TestBaseMemoHitMatchesMiss(t *testing.T) {
	hitsMatchMisses(t, func(s *System) {
		s.bases = newSlotMemo[blobstore.ID, resetBase](baseMemoSlots)
	}, func(*testing.T, *System) {})
}

// TestBaseMemoFollowsReplacedBlob: the base memo is keyed by the base's
// blob, not its ID. Removing the last image on a base and publishing
// another template stores a new blob under the same base ID; retrieving
// it must read the new blob, not the reset copy of the old one.
func TestBaseMemoFollowsReplacedBlob(t *testing.T) {
	s, b := newSystem(t, Options{})
	if _, err := s.Publish(buildImage(t, b, "Redis")); err != nil {
		t.Fatal(err)
	}
	oldBase, oldBlob := baseOf(t, s, "Redis")
	retrieveBytes(t, s, "Redis")
	if err := s.Remove("Redis"); err != nil {
		t.Fatal(err)
	}
	if st := s.Repo().Stats(); st.Bases != 0 {
		t.Fatalf("%d bases left after removing the only image", st.Bases)
	}
	if _, err := s.Publish(buildImage(t, b, "Django")); err != nil {
		t.Fatal(err)
	}
	newBase, newBlob := baseOf(t, s, "Django")
	if newBase != oldBase || newBlob == oldBlob {
		t.Fatalf("setup: base %s blob %x replaced by base %s blob %x; want the same base ID on a new blob",
			oldBase, oldBlob[:4], newBase, newBlob[:4])
	}
	want := missBytes(t, NewSystemWithRepo(s.repo, testDev, Options{}), "Django")
	if got := retrieveBytes(t, s, "Django"); !bytes.Equal(got, want) {
		t.Fatal("a retrieval after the base blob was replaced under its ID assembled on the old blob")
	}
}

func baseOf(t *testing.T, s *System, name string) (string, blobstore.ID) {
	t.Helper()
	rec, err := s.repo.GetVMI(name, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rec.BaseID, baseBlob(t, s.repo, name)
}

// openCounts is baseReads that also counts the opens of the blob and marks
// every reader it hands out with a finalizer.
type openCounts struct {
	baseReads
	opens, collected atomic.Int64
}

func (o *openCounts) Open(id blobstore.ID) (io.ReadCloser, int64, error) {
	rc, size, err := o.baseReads.Open(id)
	if err == nil && id == o.id {
		o.opens.Add(1)
		runtime.SetFinalizer(rc.(*countedReader), func(*countedReader) { o.collected.Add(1) })
	}
	return rc, size, err
}

// TestBaseMemoHitStillOpensBase: a retrieval served by the base memo still
// opens its base under the view lock, once, and reads fewer of its bytes
// than the retrieval that filled the memo; the memo keeps no reader alive;
// and a removed image is not found, memo or not.
func TestBaseMemoHitStillOpensBase(t *testing.T) {
	reads := &openCounts{baseReads: baseReads{Backend: blobstore.New()}}
	s := NewSystemWithRepo(vmirepo.NewWithBackend(testDev, reads), testDev, Options{})
	b := builder.New(catalog.NewUniverse())
	for _, n := range []string{"Redis", "Django"} {
		if _, err := s.Publish(buildImage(t, b, n)); err != nil {
			t.Fatal(err)
		}
	}
	_, reads.id = baseOf(t, s, "Redis")
	var read [2]int64
	for i := range read {
		before := reads.n.Load()
		retrieveBytes(t, s, "Redis")
		read[i] = reads.n.Load() - before
		if n := reads.opens.Load(); n != int64(i+1) {
			t.Fatalf("retrieval %d: the base was opened %d times in all, want %d", i+1, n, i+1)
		}
	}
	if read[1] >= read[0] {
		t.Fatalf("the memo hit read %d base-blob bytes, the miss %d", read[1], read[0])
	}
	for deadline := time.Now().Add(5 * time.Second); reads.collected.Load() < 2; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 2 closed base readers were collected: the base memo holds one", reads.collected.Load())
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if err := s.Remove("Django"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.RetrieveTo(io.Discard, "Django"); !errors.Is(err, vmirepo.ErrNotFound) {
		t.Fatalf("retrieving a removed image: %v, want ErrNotFound", err)
	}
	retrieveBytes(t, s, "Redis")
}

// TestBaseMemoConcurrentFill: retrievals released together on a system
// whose base memo is empty all race to fill it, and each still returns its
// image's bytes. Run it under -race.
func TestBaseMemoConcurrentFill(t *testing.T) {
	s, b := newSystem(t, Options{})
	names := []string{"Redis", "Django", "Mini", "PostgreSql"}
	for _, n := range names {
		if _, err := s.Publish(buildImage(t, b, n)); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string][]byte{}
	for _, n := range names {
		want[n] = missBytes(t, s, n)
	}
	fillConcurrently(t, NewSystemWithRepo(s.repo, testDev, Options{}), names, want)
}

// fillConcurrently releases 8 goroutines together on s, each retrieving
// two of names, and requires every image to be its want bytes.
func fillConcurrently(t *testing.T, s *System, names []string, want map[string][]byte) {
	t.Helper()
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := range 2 {
				n := names[(g+i)%len(names)]
				var buf bytes.Buffer
				if _, _, err := s.RetrieveTo(&buf, n); err != nil {
					errs <- err.Error()
					return
				}
				if !bytes.Equal(buf.Bytes(), want[n]) {
					errs <- n + " differs from its memo miss"
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestBaseMemoMoreBasesThanSlots: with more base blobs than the memo has
// slots, blobs evict each other, and every retrieval, hit or miss, is
// still its image's bytes.
func TestBaseMemoMoreBasesThanSlots(t *testing.T) {
	s, b := newSystem(t, Options{NoBaseSelection: true})
	var names []string
	blobs := map[blobstore.ID]bool{}
	for _, tpl := range catalog.Paper19()[:baseMemoSlots+4] {
		if _, err := s.Publish(buildImage(t, b, tpl.Name)); err != nil {
			t.Fatal(err)
		}
		names = append(names, tpl.Name)
		_, id := baseOf(t, s, tpl.Name)
		blobs[id] = true
	}
	if len(blobs) <= baseMemoSlots {
		t.Fatalf("setup: %d base blobs for %d slots", len(blobs), baseMemoSlots)
	}
	want := map[string][]byte{}
	miss := NewSystemWithRepo(s.repo, testDev, Options{})
	for _, n := range names {
		want[n] = missBytes(t, miss, n)
	}
	for round := range 3 {
		for i := range names {
			n := names[(i*(round+1))%len(names)]
			if !bytes.Equal(retrieveBytes(t, s, n), want[n]) {
				t.Fatalf("round %d: %s differs from its memo miss", round, n)
			}
		}
	}
}
