package metawal

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// ship reads the writer's current snapshot and durable WAL tail and
// feeds both to a fresh follower, returning it.
func ship(t *testing.T, l *Log) *Follower {
	t.Helper()
	f := NewFollower()
	catchUp(t, l, f)
	return f
}

// catchUp advances f to l's durable position, restarting from the
// snapshot when the epochs diverge — the in-process mirror of the
// replica loop.
func catchUp(t *testing.T, l *Log, f *Follower) {
	t.Helper()
	for {
		epoch, durable := l.CommitState()
		fe, applied := f.Position()
		if fe != epoch {
			snapEpoch, rc, size, err := l.SnapshotReader()
			if err != nil {
				t.Fatalf("SnapshotReader: %v", err)
			}
			snap, err := io.ReadAll(rc)
			rc.Close()
			if err != nil || int64(len(snap)) != size {
				t.Fatalf("read snapshot: %v (%d of %d bytes)", err, len(snap), size)
			}
			if _, err := f.Restart(snapEpoch, snap); err != nil {
				t.Fatalf("Restart(epoch %d): %v", snapEpoch, err)
			}
			continue
		}
		if applied >= durable {
			return
		}
		rc, n, err := l.WALReader(epoch, applied)
		if err != nil {
			t.Fatalf("WALReader(%d, %d): %v", epoch, applied, err)
		}
		chunk, err := io.ReadAll(rc)
		rc.Close()
		if err != nil || int64(len(chunk)) != n {
			t.Fatalf("read WAL tail: %v (%d of %d bytes)", err, len(chunk), n)
		}
		if _, err := f.Apply(epoch, applied, chunk, nil); err != nil {
			t.Fatalf("Apply(%d, %d, %d bytes): %v", epoch, applied, len(chunk), err)
		}
	}
}

// TestFollowerRoundTrip pins the core shipping contract: a follower fed
// the snapshot plus the durable WAL tail reproduces the writer's
// database byte for byte, across multiple sync batches.
func TestFollowerRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, db := openLog(t, dir, Options{})
	defer l.Close()
	wire(db, l)

	putN(db, "pkgs", 0, 10)
	mustSync(t, l)
	f := ship(t, l)
	if !bytes.Equal(f.DB().Snapshot(), db.Snapshot()) {
		t.Fatalf("follower snapshot differs after initial ship")
	}

	// More batches, applied incrementally without re-shipping the snapshot.
	putN(db, "pkgs", 10, 7)
	mustSync(t, l)
	db.CreateBucket("pkgs").Delete([]byte("key-0002"))
	putN(db, "other", 0, 3)
	mustSync(t, l)
	catchUp(t, l, f)
	if !bytes.Equal(f.DB().Snapshot(), db.Snapshot()) {
		t.Fatalf("follower snapshot differs after incremental catch-up")
	}
	// The epoch-1 snapshot is the empty epoch-creation image, so the
	// initial ship applied one batch via the WAL, plus the two syncs
	// above: three applied batches in total.
	if batches, ops := f.Totals(); batches != 3 || ops == 0 {
		t.Fatalf("Totals = %d batches / %d ops, want 3", batches, ops)
	}
}

// TestFollowerRefusesOutOfOrder pins the ordering contract: a chunk not
// starting at the applied watermark is refused with ErrOutOfOrder and
// mutates nothing.
func TestFollowerRefusesOutOfOrder(t *testing.T) {
	dir := t.TempDir()
	l, db := openLog(t, dir, Options{})
	defer l.Close()
	wire(db, l)
	putN(db, "pkgs", 0, 5)
	mustSync(t, l)
	f := ship(t, l)

	putN(db, "pkgs", 5, 5)
	mustSync(t, l)
	epoch, applied := f.Position()
	rc, _, err := l.WALReader(epoch, applied)
	if err != nil {
		t.Fatalf("WALReader: %v", err)
	}
	chunk, _ := io.ReadAll(rc)
	rc.Close()

	want := f.DB().Snapshot()
	if _, err := f.Apply(epoch, applied+1, chunk, nil); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("Apply at wrong offset: err = %v, want ErrOutOfOrder", err)
	}
	if _, err := f.Apply(epoch+1, applied, chunk, nil); err == nil {
		t.Fatalf("Apply at wrong epoch succeeded")
	}
	if !bytes.Equal(f.DB().Snapshot(), want) {
		t.Fatalf("refused apply mutated the follower")
	}
	// The correct chunk still applies cleanly afterwards.
	if _, err := f.Apply(epoch, applied, chunk, nil); err != nil {
		t.Fatalf("Apply after refusals: %v", err)
	}
	if !bytes.Equal(f.DB().Snapshot(), db.Snapshot()) {
		t.Fatalf("follower snapshot differs after recovery from refusals")
	}
}

// TestFollowerRefusesTornChunk pins all-or-nothing application: a chunk
// cut anywhere — mid-record or mid-batch at a record boundary — is
// refused with ErrTorn before any op is applied.
func TestFollowerRefusesTornChunk(t *testing.T) {
	dir := t.TempDir()
	l, db := openLog(t, dir, Options{})
	defer l.Close()
	wire(db, l)
	putN(db, "pkgs", 0, 3)
	mustSync(t, l)
	f := ship(t, l)

	putN(db, "pkgs", 3, 3)
	mustSync(t, l)
	epoch, applied := f.Position()
	rc, _, err := l.WALReader(epoch, applied)
	if err != nil {
		t.Fatalf("WALReader: %v", err)
	}
	chunk, _ := io.ReadAll(rc)
	rc.Close()

	want := f.DB().Snapshot()
	for _, cut := range []int{1, len(chunk) / 2, len(chunk) - 1} {
		if _, err := f.Apply(epoch, applied, chunk[:cut], nil); !errors.Is(err, ErrTorn) {
			t.Fatalf("Apply of %d-byte torn prefix: err = %v, want ErrTorn", cut, err)
		}
	}
	if !bytes.Equal(f.DB().Snapshot(), want) {
		t.Fatalf("torn applies mutated the follower")
	}
}

// TestFollowerEpochSwitch pins the compaction path: after the writer
// compacts, the old epoch's WAL is gone (ErrEpochGone), and restarting
// from the new snapshot converges the follower again.
func TestFollowerEpochSwitch(t *testing.T) {
	dir := t.TempDir()
	l, db := openLog(t, dir, Options{})
	defer l.Close()
	wire(db, l)
	putN(db, "pkgs", 0, 8)
	mustSync(t, l)
	f := ship(t, l)
	oldEpoch, _ := f.Position()

	putN(db, "pkgs", 8, 4)
	if _, err := l.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if _, _, err := l.WALReader(oldEpoch, walHeaderLen); !errors.Is(err, ErrEpochGone) {
		t.Fatalf("WALReader(old epoch): err = %v, want ErrEpochGone", err)
	}
	catchUp(t, l, f)
	newEpoch, _ := f.Position()
	if newEpoch <= oldEpoch {
		t.Fatalf("epoch did not advance: %d -> %d", oldEpoch, newEpoch)
	}
	if !bytes.Equal(f.DB().Snapshot(), db.Snapshot()) {
		t.Fatalf("follower snapshot differs after epoch switch")
	}
	// Restart must refuse going backwards.
	if _, err := f.Restart(oldEpoch, db.Snapshot()); err == nil {
		t.Fatalf("Restart to an older epoch succeeded")
	}
}

// TestWALReaderStableAcrossCompaction pins the reader-stability
// guarantee: a WAL tail reader opened before a compaction keeps serving
// its epoch's bytes after the writer switched epochs (the unlinked file
// stays readable through the open descriptor).
func TestWALReaderStableAcrossCompaction(t *testing.T) {
	dir := t.TempDir()
	l, db := openLog(t, dir, Options{})
	defer l.Close()
	wire(db, l)
	putN(db, "pkgs", 0, 6)
	mustSync(t, l)

	epoch, durable := l.CommitState()
	rc, n, err := l.WALReader(epoch, walHeaderLen)
	if err != nil {
		t.Fatalf("WALReader: %v", err)
	}
	defer rc.Close()
	if n != durable-walHeaderLen {
		t.Fatalf("WALReader length %d, want %d", n, durable-walHeaderLen)
	}

	putN(db, "pkgs", 6, 2)
	if _, err := l.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	chunk, err := io.ReadAll(rc)
	if err != nil || int64(len(chunk)) != n {
		t.Fatalf("reading retired epoch: %v (%d of %d bytes)", err, len(chunk), n)
	}
	// The bytes are the real committed tail: a fresh follower accepts them.
	f := NewFollower()
	snapEpoch, src, size, err := l.SnapshotReader()
	if err != nil {
		t.Fatalf("SnapshotReader: %v", err)
	}
	snap, _ := io.ReadAll(src)
	src.Close()
	if int64(len(snap)) != size {
		t.Fatalf("snapshot short read")
	}
	if _, err := f.Restart(snapEpoch, snap); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	if _, err := f.Apply(epoch, walHeaderLen, chunk, nil); err == nil {
		t.Fatalf("stale-epoch chunk applied to a newer follower")
	}
}
