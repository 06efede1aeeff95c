package core

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"expelliarmus/internal/blobstore"
	"expelliarmus/internal/builder"
	"expelliarmus/internal/catalog"
	"expelliarmus/internal/fsx/fsxtest"
	"expelliarmus/internal/pkgmgr"
	"expelliarmus/internal/simio"
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
// The retrievals install packages through Managers started from the memo's
// package database, which still reads as its template's status file.
func TestBaseMemoHitMatchesMiss(t *testing.T) {
	hitsMatchMisses(t, func(s *System) {
		s.bases = newSlotMemo[blobstore.ID, resetBase](baseMemoSlots)
	}, func(t *testing.T, s *System) {
		bases, err := s.repo.Bases()
		if err != nil {
			t.Fatal(err)
		}
		held := 0
		for _, b := range bases {
			id, rc, _, err := s.repo.OpenBase(b.ID, simio.PhaseCopy, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer rc.Close()
			e := s.bases.get(id)
			if e == nil {
				continue
			}
			held++
			disk := e.val.disk.CloneOver("check", rc.(io.ReaderAt))
			db, err := pkgmgr.ReadDB(e.val.fs.CloneOnto(disk))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(e.val.db, db) {
				t.Fatalf("base %s: retrievals changed the memo's package database", b.ID)
			}
		}
		if held == 0 {
			t.Fatal("the retrievals stored no base in the memo")
		}
	})
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

// TestBaseMemoConcurrentFill sweeps two retrievals of Redis on a system
// whose memos are empty: the first is parked at each of its blob calls and
// writes to its caller, between each memo miss's build and its put among
// them, while the second misses the same base, package and digest memo
// slots, fills them and returns.
func TestBaseMemoConcurrentFill(t *testing.T) {
	memoFillSweep(t, func(*System) {})
}

// memoFillSweep sweeps two retrievals of Redis on one system, whose memos
// prepare sets up after Redis's publish. The first is parked at each of its
// blob calls and writes to its caller while the second runs to its end,
// filling what the first missed; the second never waits. Both must return
// Redis's bytes, each handing its sink the SHA-256 of what it wrote; so
// must a third retrieval, which hits what they left, and the package
// memo's running weight must be what its entries weigh.
func memoFillSweep(t *testing.T, prepare func(*System)) {
	t.Helper()
	redis := buildImage(t, builder.New(catalog.NewUniverse()), "Redis")
	ref := NewSystem(testDev, Options{})
	publishAll(t, ref, redis)
	states := map[string][]byte{"redis": retrieveBytes(t, ref, "Redis")}
	var systems []*System
	retrieve := func(s *System, w io.Writer, sink *digestSink) (string, error) {
		_, _, err := s.RetrieveTo(w, "Redis")
		if err == nil && (len(sink.sums) != 1 || sink.sums[0] != sha256.Sum256(sink.Bytes())) {
			err = fmt.Errorf("the sink of %d bytes was handed digests %x", sink.Len(), sink.sums)
		}
		return namedState(sink.Bytes(), err, states)
	}
	ins := fsxtest.PauseSweep(t, []string{"redis"}, nil, viewWaits, func(t *testing.T, p *fsxtest.Pause) (fsxtest.Party, fsxtest.Party) {
		s := NewSystemWithRepo(vmirepo.NewWithBackend(testDev, p.Blobs(blobstore.New())), testDev, Options{})
		publishAll(t, s, redis)
		prepare(s)
		systems = append(systems, s)
		first, second := &digestSink{}, &digestSink{}
		first.Grow(len(states["redis"]))
		second.Grow(len(states["redis"]))
		return func() (string, error) { return retrieve(s, pausedSink{p.Writer(&first.Buffer), first}, first) },
			func() (string, error) { return retrieve(s, second, second) }
	})
	for _, in := range ins {
		if in.Waited != "" {
			t.Fatalf("call %d (%s %s): the second retrieval waited on the first:\n%s", in.N, in.Call.Op, in.Call.File, in.Waited)
		}
	}
	for _, s := range systems {
		var sink digestSink
		if st, err := retrieve(s, &sink, &sink); err != nil || st != "redis" {
			t.Fatalf("a retrieval from the memos the sweep filled saw %q (%v)", st, err)
		}
		checkHeld(t, s.packages)
	}
}

// pausedSink is a DigestWriter whose writes go through a Pause to sink.
type pausedSink struct {
	io.Writer
	sink *digestSink
}

func (p pausedSink) SetDigest(sum [sha256.Size]byte) { p.sink.SetDigest(sum) }

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
