package core

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"expelliarmus/internal/blobstore"
	"expelliarmus/internal/builder"
	"expelliarmus/internal/catalog"
	"expelliarmus/internal/pkgmgr"
	"expelliarmus/internal/simio"
	"expelliarmus/internal/vmirepo"
)

// openHook is a blob backend that runs a callback once, just before the
// first Open of one blob: the place to land a whole concurrent mutation
// between two reads of a lock-free assembly. When err is set, that first
// Open fails with it instead, as if the blob had just been released.
type openHook struct {
	blobstore.Backend
	id   blobstore.ID
	then func()
	err  error
}

func (h *openHook) Open(id blobstore.ID) (io.ReadCloser, int64, error) {
	if id == h.id && (h.then != nil || h.err != nil) {
		then, err := h.then, h.err
		h.then, h.err = nil, nil
		if then != nil {
			then()
		}
		if err != nil {
			return nil, 0, err
		}
	}
	return h.Backend.Open(id)
}

// TestRetrieveRetriesReleasedBlob: a removal or republish releases a
// VMI's user-data blob before it rewrites the record that names it, and
// the generation only settles after both. A retrieval that opens the blob
// inside that window meets the blob store's not-found sentinel — not the
// repository's — with the generation still unchanged. That is the same
// transient window as a missing record: RetrieveTo and AssembleTo must
// retry it, with the cache off and on.
func TestRetrieveRetriesReleasedBlob(t *testing.T) {
	b := builder.New(catalog.NewUniverse())
	for _, opts := range []Options{{}, {CacheBytes: testCacheBytes}} {
		hook := &openHook{Backend: blobstore.New()}
		s := NewSystemWithRepo(vmirepo.NewWithBackend(testDev, hook), testDev, opts)
		if _, err := s.Publish(buildImage(t, b, "Mini")); err != nil {
			t.Fatal(err)
		}
		ud, err := s.repo.GetUserData("Mini", simio.PhaseFetch, nil)
		if err != nil || ud == nil {
			t.Fatalf("Mini's user data = %d bytes, %v", len(ud), err)
		}
		rec, err := s.repo.GetVMI("Mini", nil)
		if err != nil {
			t.Fatal(err)
		}
		released := func() {
			hook.id = blobstore.Sum(ud)
			hook.err = fmt.Errorf("open %s: %w", hook.id, blobstore.ErrNotFound)
		}

		released()
		var first, second bytes.Buffer
		if _, _, err := s.RetrieveTo(&first, "Mini"); err != nil {
			t.Fatalf("cache %d: retrieve across a released user-data blob: %v", opts.CacheBytes, err)
		}
		if hook.err != nil {
			t.Fatalf("cache %d: the retrieval never opened Mini's user data", opts.CacheBytes)
		}
		if _, _, err := s.RetrieveTo(&second, "Mini"); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("cache %d: the retried retrieval differs from a clean one", opts.CacheBytes)
		}

		released()
		if _, _, err := s.AssembleTo(io.Discard, "custom", rec.Primaries, "Mini"); err != nil {
			t.Fatalf("cache %d: assemble across a released user-data blob: %v", opts.CacheBytes, err)
		}
		if hook.err != nil {
			t.Fatalf("cache %d: the assembly never opened Mini's user data", opts.CacheBytes)
		}
	}
}

// TestAssembleRetriesWhenBaseReplacedUnderIt: Assemble picks the master
// that provides redis-server, reads it and the base's record, and then a
// publish commit lands whole — Algorithm 2 folds that master into the
// selected base and releases the old base image — before the assembly
// opens the base blob. The blob store answers "blob not found", which is
// not the repository's ErrNotFound; the loop must still see that the
// chosen base's stripe moved and rescan, finding redis-server on the
// surviving merged master.
func TestAssembleRetriesWhenBaseReplacedUnderIt(t *testing.T) {
	hook := &openHook{Backend: blobstore.New()}
	s := NewSystemWithRepo(vmirepo.NewWithBackend(testDev, hook), testDev, Options{NoBaseSelection: true})
	b := builder.New(catalog.NewUniverse())
	for _, n := range []string{"Mini", "Redis"} {
		if _, err := s.Publish(buildImage(t, b, n)); err != nil {
			t.Fatal(err)
		}
	}
	s.opts.NoBaseSelection = false

	masters, err := s.repo.Masters()
	if err != nil {
		t.Fatal(err)
	}
	var redisBase string
	for _, mg := range masters {
		if hasAll(mg.PrimaryNames(), []string{"redis-server"}) {
			redisBase = mg.BaseID
		}
	}
	rec, err := s.repo.BaseInfo(redisBase)
	if err != nil {
		t.Fatal(err)
	}
	consolidating := buildImage(t, b, "PostgreSql")
	hook.id = rec.BlobID
	hook.then = func() {
		rep, err := s.Publish(consolidating)
		if err != nil {
			t.Errorf("consolidating publish: %v", err)
			return
		}
		if !hasAll(rep.ReplacedBases, []string{redisBase}) {
			t.Errorf("publish replaced %v, not the assembly's base %s: the window never opened", rep.ReplacedBases, redisBase)
		}
	}

	img, _, err := s.Assemble("custom", []string{"redis-server"}, "")
	if hook.then != nil {
		t.Fatal("the assembly never opened the base it chose")
	}
	if err != nil {
		t.Fatalf("assemble across a base replacement: %v", err)
	}
	fs, err := img.Mount()
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := pkgmgr.New(fs)
	if err != nil {
		t.Fatal(err)
	}
	if !mgr.IsInstalled("redis-server") {
		t.Fatal("assembled image lacks redis-server")
	}
}
