package vmirepo

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"

	"expelliarmus/internal/blobstore"
	"expelliarmus/internal/master"
	"expelliarmus/internal/simio"
)

// newFollower returns a follower repo over a fresh in-memory blob store.
func newFollower() *Repo {
	return OpenFollower(simio.NewDevice(simio.PaperProfile()), blobstore.New())
}

// shipMeta catches the follower's metadata up to the writer's durable
// position — the in-process mirror of the replica loop's metadata half.
func shipMeta(t *testing.T, w *Repo, f *Repo) {
	t.Helper()
	wal := w.WAL()
	for {
		epoch, durable := wal.CommitState()
		fe, applied := f.Follower().Position()
		if fe != epoch {
			snapEpoch, rc, size, err := wal.SnapshotReader()
			if err != nil {
				t.Fatalf("SnapshotReader: %v", err)
			}
			snap, err := io.ReadAll(rc)
			rc.Close()
			if err != nil || int64(len(snap)) != size {
				t.Fatalf("read snapshot: %v", err)
			}
			if err := f.ResetToSnapshotReader(snapEpoch, bytes.NewReader(snap), size); err != nil {
				t.Fatalf("ResetToSnapshotReader(%d): %v", snapEpoch, err)
			}
			continue
		}
		if applied >= durable {
			return
		}
		rc, n, err := wal.WALReader(epoch, applied)
		if err != nil {
			t.Fatalf("WALReader(%d, %d): %v", epoch, applied, err)
		}
		chunk, err := io.ReadAll(rc)
		rc.Close()
		if err != nil || int64(len(chunk)) != n {
			t.Fatalf("read WAL tail: %v", err)
		}
		if _, err := f.ApplyWAL(epoch, applied, chunk); err != nil {
			t.Fatalf("ApplyWAL: %v", err)
		}
	}
}

// copyBlobs copies every live blob from the writer's backend into the
// follower's — the test stand-in for the network read-through.
func copyBlobs(t *testing.T, w, f *Repo) {
	t.Helper()
	for _, id := range w.blobs.IDs() {
		if f.blobs.Refs(id) > 0 {
			continue
		}
		rc, _, err := w.blobs.Open(id)
		if err != nil {
			t.Fatalf("writer blob %s unreadable: %v", id, err)
		}
		_, _, _, err = f.blobs.PutReader(rc)
		rc.Close()
		if err != nil {
			t.Fatalf("copy blob %s: %v", id, err)
		}
	}
}

// TestFollowerReadOnlyGates pins that every mutating entry point of a
// follower repository refuses with ErrReadOnly.
func TestFollowerReadOnlyGates(t *testing.T) {
	f := newFollower()
	if !f.ReadOnly() {
		t.Fatal("follower does not report read-only")
	}
	mg := master.New("base-1", baseSubgraph())
	_, ensureErr := f.EnsurePackage(pkg("redis"), []byte("x"), nil)
	checks := map[string]error{
		"EnsurePkg":   ensureErr,
		"PutBase":     putBase(f, "base-1", []byte("img"), nil),
		"RemoveBase":  f.RemoveBase("base-1", nil),
		"PutMaster":   f.PutMaster(mg, nil),
		"RemoveMast":  f.RemoveMaster("base-1", nil),
		"PutVMI":      f.PutVMI(VMIRecord{Name: "vm", BaseID: "base-1"}, nil),
		"RemoveVMI":   f.RemoveVMI("vm", nil),
		"RewireVMIs":  f.RewireVMIs("a", "b", nil),
		"PutUserData": putUserData(f, "vm", []byte("ud"), nil),
		"RemoveUD":    f.RemoveUserData("vm", nil),
		"RemovePkg":   f.RemovePackage(pkg("redis").Ref(), nil),
	}
	for name, err := range checks {
		if !errors.Is(err, ErrReadOnly) {
			t.Errorf("%s: err = %v, want ErrReadOnly", name, err)
		}
	}
	if _, err := f.Sync(); !errors.Is(err, ErrReadOnly) {
		t.Errorf("Sync: err = %v, want ErrReadOnly", err)
	}
	if _, err := f.Compact(); !errors.Is(err, ErrReadOnly) {
		t.Errorf("Compact: err = %v, want ErrReadOnly", err)
	}
}

// TestFollowerCatchUp pins metadata equivalence and read-path parity: a
// follower fed snapshot + WAL serves byte-identical metadata and base
// images, across incremental batches and a forced compaction epoch
// switch.
func TestFollowerCatchUp(t *testing.T) {
	dir := t.TempDir()
	dev := simio.NewDevice(simio.PaperProfile())
	w, err := OpenAt(dir, dev)
	if err != nil {
		t.Fatalf("OpenAt: %v", err)
	}
	defer w.Close()
	f := newFollower()

	img := bytes.Repeat([]byte{0xAB}, 4096)
	if err := putBase(w, "base-1", img, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := w.EnsurePackage(pkg("redis"), []byte("redis-bytes"), nil); err != nil {
		t.Fatal(err)
	}
	if err := w.PutVMI(VMIRecord{Name: "vm-1", BaseID: "base-1"}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	shipMeta(t, w, f)
	copyBlobs(t, w, f)
	if !bytes.Equal(f.MetaSnapshot(), w.meta().Snapshot()) {
		t.Fatalf("metadata snapshots differ after initial catch-up")
	}

	// The follower serves the same bytes the writer does.
	got, err := readBase(f)
	if err != nil {
		t.Fatalf("follower OpenBase: %v", err)
	}
	if !bytes.Equal(got, img) {
		t.Fatalf("follower served %d bytes, want %d identical", len(got), len(img))
	}

	// Incremental batch, then a forced compaction (epoch switch).
	if err := w.PutVMI(VMIRecord{Name: "vm-2", BaseID: "base-1"}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	shipMeta(t, w, f)
	if !bytes.Equal(f.MetaSnapshot(), w.meta().Snapshot()) {
		t.Fatalf("metadata snapshots differ after incremental batch")
	}

	if err := putUserData(w, "vm-2", []byte("cloud-init"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	oldEpoch, _ := f.Follower().Position()
	shipMeta(t, w, f)
	copyBlobs(t, w, f)
	newEpoch, _ := f.Follower().Position()
	if newEpoch <= oldEpoch {
		t.Fatalf("epoch did not advance across compaction: %d -> %d", oldEpoch, newEpoch)
	}
	if !bytes.Equal(f.MetaSnapshot(), w.meta().Snapshot()) {
		t.Fatalf("metadata snapshots differ after epoch switch")
	}
	rec, err := f.GetVMI("vm-2", nil)
	if err != nil || rec.BaseID != "base-1" {
		t.Fatalf("follower GetVMI(vm-2) = %+v, %v", rec, err)
	}
}

func readBase(r *Repo) ([]byte, error) {
	_, rc, size, err := r.OpenBase("base-1", simio.PhaseFetch, nil)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	buf := make([]byte, size)
	_, err = io.ReadFull(rc, buf)
	return buf, err
}

// TestFollowerGenerationBumps pins the cache-invalidation contract:
// applying a batch bumps the stripes its ops scope to and no others, and
// an epoch-switch reset bumps everything.
func TestFollowerGenerationBumps(t *testing.T) {
	dir := t.TempDir()
	dev := simio.NewDevice(simio.PaperProfile())
	w, err := OpenAt(dir, dev)
	if err != nil {
		t.Fatalf("OpenAt: %v", err)
	}
	defer w.Close()
	f := newFollower()
	if err := putBase(w, "base-1", []byte("img"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	shipMeta(t, w, f)

	// Pick an observer key whose stripe differs from both stripes the
	// VMI put will bump (its name and its base), so precision shows.
	name := "vm-x"
	other := "vm-other"
	for i := 0; StripeFor(other) == StripeFor(name) || StripeFor(other) == StripeFor("base-1"); i++ {
		other = fmt.Sprintf("vm-other%d", i)
	}
	genTouched := f.GenerationFor(name, "base-1")
	genOther := f.GenerationFor(other)

	if err := w.PutVMI(VMIRecord{Name: name, BaseID: "base-1"}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	shipMeta(t, w, f)
	if got := f.GenerationFor(name, "base-1"); got == genTouched {
		t.Fatalf("touched stripes did not bump")
	}
	if got := f.GenerationFor(other); got != genOther {
		t.Fatalf("unrelated stripe bumped: %d -> %d", genOther, got)
	}

	// Epoch switch: everything must invalidate.
	genOther = f.GenerationFor(other)
	if _, err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	shipMeta(t, w, f)
	if got := f.GenerationFor(other); got == genOther {
		t.Fatalf("epoch switch left a stripe unbumped")
	}
}

// TestConcurrentSyncDurability pins that concurrent Sync callers are all
// durable: after the concurrent storm, a reopen replays every caller's
// package.
func TestConcurrentSyncDurability(t *testing.T) {
	dir := t.TempDir()
	dev := simio.NewDevice(simio.PaperProfile())
	w, err := OpenAt(dir, dev)
	if err != nil {
		t.Fatalf("OpenAt: %v", err)
	}
	const callers = 16
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			if _, err := w.EnsurePackage(pkg(fmt.Sprintf("q-%d", i)), []byte("y"), nil); err != nil {
				t.Errorf("put: %v", err)
				return
			}
			if _, err := w.Sync(); err != nil {
				t.Errorf("sync: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	re, err := OpenAt(dir, dev)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	for i := 0; i < callers; i++ {
		if !re.HasPackage(pkg(fmt.Sprintf("q-%d", i)).Ref(), nil) {
			t.Fatalf("package q-%d lost across reopen", i)
		}
	}
}
