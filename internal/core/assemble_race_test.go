package core

import (
	"io"
	"testing"

	"expelliarmus/internal/blobstore"
	"expelliarmus/internal/builder"
	"expelliarmus/internal/catalog"
	"expelliarmus/internal/pkgmgr"
	"expelliarmus/internal/vmirepo"
)

// openHook is a blob backend that runs a callback once, just before the
// first Open of one blob: the place to land a whole concurrent mutation
// between two reads of a lock-free assembly.
type openHook struct {
	blobstore.Backend
	id   blobstore.ID
	then func()
}

func (h *openHook) Open(id blobstore.ID) (io.ReadCloser, int64, error) {
	if h.then != nil && id == h.id {
		then := h.then
		h.then = nil
		then()
	}
	return h.Backend.Open(id)
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
