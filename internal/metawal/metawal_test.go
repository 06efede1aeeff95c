package metawal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"expelliarmus/internal/fsx"
	"expelliarmus/internal/fsx/fsxtest"
	"expelliarmus/internal/metadb"
)

// openLog opens a log, failing the test on error.
func openLog(t *testing.T, dir string, opts Options) (*Log, *metadb.DB) {
	t.Helper()
	l, db, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, db
}

// wire connects db mutations to the log, as vmirepo does.
func wire(db *metadb.DB, l *Log) { db.SetJournal(l.Record) }

// putN writes n keys into bucket b of db.
func putN(db *metadb.DB, bucket string, start, n int) {
	b := db.CreateBucket(bucket)
	for i := start; i < start+n; i++ {
		b.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte(fmt.Sprintf("value-%04d", i)))
	}
}

// mustSync syncs, failing the test on error.
func mustSync(t *testing.T, l *Log) SyncStats {
	t.Helper()
	st, err := l.Sync()
	if err != nil {
		t.Fatalf("Sync: %v", err)
	}
	return st
}

// reopenSnap reopens the directory on the real file system, returning the
// replayed database's snapshot for equivalence checks.
func reopenSnap(t *testing.T, dir string) ([]byte, RecoveryReport) {
	t.Helper()
	l, db := openLog(t, dir, Options{})
	defer l.Close()
	return db.Snapshot(), l.Recovery()
}

// stateOf names a recovered snapshot: "old" or "new" when it equals one of
// the two committed states, "" otherwise.
func stateOf(got, oldState, newState []byte) string {
	switch {
	case bytes.Equal(got, oldState):
		return "old"
	case bytes.Equal(got, newState):
		return "new"
	}
	return ""
}

// TestRoundTrip pins the basic contract: mutations synced through the
// WAL reopen to a byte-identical snapshot, with batches replayed.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, db := openLog(t, dir, Options{})
	wire(db, l)
	putN(db, "pkgs", 0, 10)
	st := mustSync(t, l)
	if st.MetaOps != 11 { // 10 puts + 1 bucket creation
		t.Fatalf("first sync committed %d ops, want 11", st.MetaOps)
	}
	putN(db, "pkgs", 10, 5)
	db.CreateBucket("pkgs").Delete([]byte("key-0003"))
	mustSync(t, l)
	want := db.Snapshot()
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	got, rec := reopenSnap(t, dir)
	if !bytes.Equal(got, want) {
		t.Fatalf("reopened snapshot differs: %d vs %d bytes", len(got), len(want))
	}
	if rec.ReplayedBatches != 2 || rec.ReplayedOps != 17 || rec.Torn {
		t.Fatalf("recovery = %+v, want 2 clean batches of 17 ops", rec)
	}
}

// TestNoOpSyncSkipsCommit pins that a Sync with nothing to commit writes
// nothing (no WAL growth, no watermark churn).
func TestNoOpSyncSkipsCommit(t *testing.T) {
	dir := t.TempDir()
	l, db := openLog(t, dir, Options{})
	wire(db, l)
	putN(db, "b", 0, 3)
	mustSync(t, l)
	lenBefore := l.Bytes()
	st := mustSync(t, l)
	if st.MetaOps != 0 || st.MetaBytes != 0 || st.Compacted {
		t.Fatalf("no-op sync committed something: %+v", st)
	}
	if l.Bytes() != lenBefore {
		t.Fatalf("no-op sync grew the WAL")
	}
	l.Close()
}

// TestUnsyncedOpsLostOnCrash pins the buffering contract: ops recorded
// but never synced die with the process — the safe direction, because
// their blobs may not be durable either.
func TestUnsyncedOpsLostOnCrash(t *testing.T) {
	dir := t.TempDir()
	ffs := fsx.NewFault()
	l, db := openLog(t, dir, Options{FS: ffs})
	wire(db, l)
	putN(db, "b", 0, 4)
	mustSync(t, l)
	want := db.Snapshot()
	putN(db, "b", 4, 4) // never synced
	if l.pendingOps == 0 {
		t.Fatal("ops not buffered")
	}
	if err := ffs.Crash(); err != nil {
		t.Fatal(err)
	}

	got, rec := reopenSnap(t, dir)
	if !bytes.Equal(got, want) {
		t.Fatalf("crash did not land on the last synced state")
	}
	if rec.Torn {
		t.Fatalf("clean crash reported a tear: %+v", rec)
	}
}

// TestCloseReportsUncommittedOps pins that Close never commits: ops
// recorded after the last Sync are dropped, and Close says so.
func TestCloseReportsUncommittedOps(t *testing.T) {
	dir := t.TempDir()
	l, db := openLog(t, dir, Options{})
	wire(db, l)
	putN(db, "b", 0, 2)
	mustSync(t, l)
	want := db.Snapshot()
	putN(db, "b", 2, 3)
	if err := l.Close(); err == nil || !strings.Contains(err.Error(), "3 uncommitted ops") {
		t.Fatalf("Close with pending ops = %v", err)
	}
	if got, _ := reopenSnap(t, dir); !bytes.Equal(got, want) {
		t.Fatalf("Close committed the pending ops")
	}
}

// TestKillAfterAppendReplaysBatch crashes a Sync at each of its calls.
// Once the batch is fsynced it is whole and marked on disk, so replay
// applies it even when the crash beat the watermark commit — the log
// retained the operations — and the next sync advances the lagging
// watermark. Before that, the unsynced batch is lost whole, never torn.
func TestKillAfterAppendReplaysBatch(t *testing.T) {
	windows := []fsxtest.Window{
		{Name: "appending", Want: "old"},
		{Name: "committing", From: "meta.commit", Want: "new"},
	}
	fsxtest.Sweep(t, []string{"old", "new"}, windows, func(t *testing.T, ffs *fsx.Fault, n int) string {
		dir := t.TempDir()
		l, db := openLog(t, dir, Options{FS: ffs})
		wire(db, l)
		putN(db, "b", 0, 3)
		mustSync(t, l)
		oldState := db.Snapshot()
		putN(db, "b", 3, 3)
		newState := db.Snapshot()
		ffs.Inject(fsx.Crash, n, "")
		if _, err := l.Sync(); err != nil && !ffs.Crashed() {
			t.Fatalf("Sync: %v", err)
		}
		l.Close()
		trace := ffs.Trace()
		hit := trace[len(trace)-1]

		l2, db2 := openLog(t, dir, Options{})
		defer l2.Close()
		if rec := l2.Recovery(); rec.Torn {
			t.Fatalf("crash at call %d tore the log: %+v", n, rec)
		}
		state := stateOf(db2.Snapshot(), oldState, newState)
		// The watermark lags the replayed batch exactly when the crash beat
		// the rename of the new commit record.
		lag := l2.DurableBytes() < l2.Bytes()
		if lag != strings.HasPrefix(hit.File, "meta.commit") {
			t.Fatalf("crash at %v: watermark %d of %d bytes", hit, l2.DurableBytes(), l2.Bytes())
		}
		wire(db2, l2)
		if _, err := l2.Sync(); err != nil {
			t.Fatalf("watermark-advancing sync: %v", err)
		}
		if l2.DurableBytes() != l2.Bytes() {
			t.Fatalf("sync did not advance the watermark")
		}
		return state
	})
}

// TestTornBatchTruncatedWhole tears the last batch mid-record: recovery
// must discard the WHOLE batch (its commit marker never landed), landing
// exactly on the previous synced state — never inside a Sync.
func TestTornBatchTruncatedWhole(t *testing.T) {
	dir := t.TempDir()
	ffs := fsx.NewFault()
	l, db := openLog(t, dir, Options{FS: ffs})
	wire(db, l)
	putN(db, "b", 0, 3)
	mustSync(t, l)
	want := db.Snapshot()
	tail := l.Bytes()
	putN(db, "b", 3, 3)
	// Crash once the batch is fsynced, before the watermark commit.
	ffs.Inject(fsx.Crash, 1, "meta.commit")
	l.Sync()
	// The crash happened mid-append: cut the appended batch in half.
	walPath := filepath.Join(dir, walName(1))
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	cut := tail + (fi.Size()-tail)/2
	if err := os.Truncate(walPath, cut); err != nil {
		t.Fatal(err)
	}

	got, rec := reopenSnap(t, dir)
	if !bytes.Equal(got, want) {
		t.Fatalf("torn batch partially applied")
	}
	if !rec.Torn || rec.TornOffset != tail || rec.DroppedBytes != cut-tail {
		t.Fatalf("tear geometry = %+v, want truncation back to %d", rec, tail)
	}
	if fi, _ := os.Stat(walPath); fi.Size() != tail {
		t.Fatalf("WAL not truncated to the last committed batch")
	}
}

// TestWholeUncommittedRecordsDropped appends valid op records with no
// commit marker (a crash after some records hit disk but before the
// marker): they must be dropped and truncated away, not applied.
func TestWholeUncommittedRecordsDropped(t *testing.T) {
	dir := t.TempDir()
	l, db := openLog(t, dir, Options{})
	wire(db, l)
	putN(db, "b", 0, 2)
	mustSync(t, l)
	want := db.Snapshot()
	tail := l.Bytes()
	l.Close()

	f, err := os.OpenFile(filepath.Join(dir, walName(1)), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	rec := appendOp(nil, metadb.Op{Kind: metadb.OpPut, Bucket: "b", Key: []byte("ghost"), Value: []byte("x")})
	if _, err := f.Write(rec); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, r := reopenSnap(t, dir)
	if !bytes.Equal(got, want) {
		t.Fatalf("uncommitted record applied")
	}
	if !r.Torn || r.DroppedOps != 1 || r.TornOffset != tail {
		t.Fatalf("recovery = %+v, want 1 dropped op truncated back to %d", r, tail)
	}
}

// TestCorruptionBelowWatermarkRefused flips a bit inside a synced batch
// at the very tail: with no valid record after it this would look like a
// tear, but the watermark proves the bytes were durably committed, so
// Open must refuse rather than silently truncate committed history.
func TestCorruptionBelowWatermarkRefused(t *testing.T) {
	dir := t.TempDir()
	l, db := openLog(t, dir, Options{})
	wire(db, l)
	putN(db, "b", 0, 3)
	mustSync(t, l)
	l.Close()

	walPath := filepath.Join(dir, walName(1))
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x40
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "watermark") {
		t.Fatalf("damage below the watermark not refused: %v", err)
	}
}

// TestCorruptionAmidTailRefused flips a bit in a committed (below-
// watermark) record that has a valid record after it: real corruption of
// acknowledged data, refused via the watermark oracle.
func TestCorruptionAmidTailRefused(t *testing.T) {
	dir := t.TempDir()
	l, db := openLog(t, dir, Options{})
	wire(db, l)
	b := db.CreateBucket("b")
	b.Put([]byte("first"), []byte("record gets damaged"))
	b.Put([]byte("second"), []byte("record stays whole"))
	mustSync(t, l)
	l.Close()

	walPath := filepath.Join(dir, walName(1))
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Damage the first op record's payload (well before the later ones).
	data[walHeaderLen+recHeaderSize+2] ^= 0x20
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Fatalf("non-tail corruption not refused: %v", err)
	}
}

// TestDamageAboveWatermarkTruncatesDespiteValidTail pins the watermark
// oracle's other half: damage in the UNACKNOWLEDGED tail is a crash
// artifact even when a valid record follows it (a multi-page batch whose
// pages were written back out of order before the fsync completed), so
// recovery truncates back to the last commit boundary instead of
// refusing to open.
func TestDamageAboveWatermarkTruncatesDespiteValidTail(t *testing.T) {
	dir := t.TempDir()
	ffs := fsx.NewFault()
	l, db := openLog(t, dir, Options{FS: ffs})
	wire(db, l)
	putN(db, "b", 0, 3)
	mustSync(t, l)
	want := db.Snapshot()
	tail := l.Bytes()
	// A batch lands beyond the watermark (crash between fsync and commit).
	putN(db, "b", 3, 4)
	ffs.Inject(fsx.Crash, 1, "meta.commit")
	l.Sync()
	// Damage an EARLY record of that batch, leaving later records (and
	// the commit marker) intact — the out-of-order-writeback shape.
	walPath := filepath.Join(dir, walName(1))
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[tail+recHeaderSize+1] ^= 0x10
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	got, rec := reopenSnap(t, dir)
	if !bytes.Equal(got, want) {
		t.Fatalf("recovery did not roll back to the last synced state")
	}
	if !rec.Torn || rec.TornOffset != tail {
		t.Fatalf("recovery = %+v, want truncation back to the watermark %d", rec, tail)
	}
}

// TestMissingCommitWithEpochFilesRefused removes meta.commit from a
// committed repository: the remaining epoch files prove a commit once
// existed, so Open must refuse rather than silently re-initialise an
// empty repository over recoverable metadata — at epoch 1 (a WAL holding
// records) and after a compaction (a higher epoch).
func TestMissingCommitWithEpochFilesRefused(t *testing.T) {
	t.Run("epoch1-wal-records", func(t *testing.T) {
		dir := t.TempDir()
		l, db := openLog(t, dir, Options{})
		wire(db, l)
		putN(db, "b", 0, 3)
		mustSync(t, l)
		l.Close()
		if err := os.Remove(filepath.Join(dir, "meta.commit")); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "root of trust") {
			t.Fatalf("lost commit not refused: %v", err)
		}
	})
	t.Run("compacted-epoch", func(t *testing.T) {
		dir := t.TempDir()
		l, db := openLog(t, dir, Options{})
		wire(db, l)
		putN(db, "b", 0, 3)
		if _, err := l.Compact(); err != nil {
			t.Fatal(err)
		}
		l.Close()
		if err := os.Remove(filepath.Join(dir, "meta.commit")); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "root of trust") {
			t.Fatalf("lost commit after compaction not refused: %v", err)
		}
	})
	// A stray meta.db (the long-gone pre-WAL layout's file name) is just
	// a foreign file: it neither vouches for the orphaned epoch files nor
	// offers anything to initialise from, so the lost commit is refused.
	t.Run("stray-meta.db-changes-nothing", func(t *testing.T) {
		dir := t.TempDir()
		l, db := openLog(t, dir, Options{})
		wire(db, l)
		putN(db, "b", 0, 3)
		mustSync(t, l)
		l.Close()
		stray := metadb.New()
		stray.CreateBucket("ancient").Put([]byte("k"), []byte("v"))
		if err := os.WriteFile(filepath.Join(dir, "meta.db"), stray.Snapshot(), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(filepath.Join(dir, "meta.commit")); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "root of trust") {
			t.Fatalf("lost commit next to a stray meta.db not refused: %v", err)
		}
	})
}

// TestCrashedFirstInitSweptAndReinitialised pins the benign side of the
// missing-commit rule: a crash during the very first initialisation
// leaves an empty epoch-1 snapshot (and possibly a record-free WAL) with
// no commit — provably worthless, so the next open sweeps them and
// starts fresh instead of refusing.
func TestCrashedFirstInitSweptAndReinitialised(t *testing.T) {
	dir := t.TempDir()
	empty := metadb.New().Snapshot()
	if err := os.WriteFile(filepath.Join(dir, snapName(1)), empty, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walName(1)), walMagic, 0o644); err != nil {
		t.Fatal(err)
	}
	l, db := openLog(t, dir, Options{})
	defer l.Close()
	wire(db, l)
	putN(db, "b", 0, 2)
	mustSync(t, l)
	if l.Recovery().StaleFilesRemoved == 0 {
		t.Fatalf("crashed-init leftovers not swept: %+v", l.Recovery())
	}
}

// TestMissingSnapshotRefused deletes the snapshot the commit references.
func TestMissingSnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	l, db := openLog(t, dir, Options{})
	wire(db, l)
	putN(db, "b", 0, 2)
	mustSync(t, l)
	l.Close()
	if err := os.Remove(filepath.Join(dir, snapName(1))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "missing snapshot") {
		t.Fatalf("missing snapshot not refused: %v", err)
	}
}

// TestMissingWALRefused deletes the WAL the commit references.
func TestMissingWALRefused(t *testing.T) {
	dir := t.TempDir()
	l, db := openLog(t, dir, Options{})
	wire(db, l)
	putN(db, "b", 0, 2)
	mustSync(t, l)
	l.Close()
	if err := os.Remove(filepath.Join(dir, walName(1))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "missing WAL") {
		t.Fatalf("missing WAL not refused: %v", err)
	}
}

// TestWALShorterThanWatermarkRefused truncates the WAL below the
// committed watermark: durably synced operations are gone.
func TestWALShorterThanWatermarkRefused(t *testing.T) {
	dir := t.TempDir()
	l, db := openLog(t, dir, Options{})
	wire(db, l)
	putN(db, "b", 0, 5)
	mustSync(t, l)
	l.Close()
	if err := os.Truncate(filepath.Join(dir, walName(1)), walHeaderLen+4); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "shorter than the synced watermark") {
		t.Fatalf("short WAL not refused: %v", err)
	}
}

// TestCorruptCommitRefused damages meta.commit: the root of trust is
// gone, and guessing an epoch could resurrect a half-compacted past.
func TestCorruptCommitRefused(t *testing.T) {
	dir := t.TempDir()
	l, db := openLog(t, dir, Options{})
	wire(db, l)
	putN(db, "b", 0, 2)
	mustSync(t, l)
	l.Close()
	path := filepath.Join(dir, "meta.commit")
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)/2] ^= 0x01
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "meta.commit") {
		t.Fatalf("corrupt commit not refused: %v", err)
	}
}

// TestCompactionRoundTrip forces compaction and checks the epoch bump,
// the file turnover, and state equivalence.
func TestCompactionRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, db := openLog(t, dir, Options{})
	wire(db, l)
	putN(db, "b", 0, 20)
	mustSync(t, l)
	putN(db, "b", 20, 5)
	st, err := l.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if !st.Compacted || st.MetaSnapshotBytes == 0 || st.MetaOps != 5 {
		t.Fatalf("compaction stats = %+v", st)
	}
	if l.Epoch() != 2 || l.Bytes() != walHeaderLen {
		t.Fatalf("epoch/length after compaction = %d/%d", l.Epoch(), l.Bytes())
	}
	for _, stale := range []string{snapName(1), walName(1)} {
		if _, err := os.Stat(filepath.Join(dir, stale)); !os.IsNotExist(err) {
			t.Fatalf("old epoch file %s not removed", stale)
		}
	}
	putN(db, "b", 25, 3) // post-compaction appends land in the new WAL
	mustSync(t, l)
	want2 := db.Snapshot()
	l.Close()

	got, rec := reopenSnap(t, dir)
	if !bytes.Equal(got, want2) {
		t.Fatalf("post-compaction state lost")
	}
	if rec.Epoch != 2 || rec.ReplayedOps != 3 {
		t.Fatalf("recovery = %+v, want epoch 2 with 3 replayed ops", rec)
	}
}

// TestSizeTriggeredCompaction pins the CompactBytes trigger.
func TestSizeTriggeredCompaction(t *testing.T) {
	dir := t.TempDir()
	l, db := openLog(t, dir, Options{CompactBytes: 256})
	wire(db, l)
	putN(db, "b", 0, 50)
	st := mustSync(t, l)
	if !st.Compacted {
		t.Fatalf("oversize sync did not compact: %+v", st)
	}
	l.Close()
}

// TestOversizedDeltaCompacts pins the other trigger: a pending delta
// bigger than the whole database compacts instead of appending — a bulk
// load must not write every intermediate record version.
func TestOversizedDeltaCompacts(t *testing.T) {
	dir := t.TempDir()
	l, db := openLog(t, dir, Options{})
	wire(db, l)
	// Rewrite one key many times: pending grows with every version while
	// the database holds only the last.
	b := db.CreateBucket("b")
	big := bytes.Repeat([]byte("x"), 4096)
	for i := 0; i < 20; i++ {
		b.Put([]byte("churned"), append(big, byte(i)))
	}
	st := mustSync(t, l)
	if !st.Compacted {
		t.Fatalf("oversized delta appended instead of compacting: %+v", st)
	}
	if st.MetaSnapshotBytes > 3*int64(len(big)) {
		t.Fatalf("snapshot wrote %d bytes for a ~%d-byte database", st.MetaSnapshotBytes, len(big))
	}
	l.Close()
}

// TestCompactionCrashWindows crashes a forced compaction at each of its
// calls and checks every crash reopens to a consistent state: before the
// commit switch the old epoch without the pending batch, after it the new
// epoch with it — and recovery sweeps, and counts, every file of the
// losing epoch. Windows are named for the step last completed when they
// open; the commit is the rename of meta.commit, so the window after it
// opens at the directory fsync that follows.
func TestCompactionCrashWindows(t *testing.T) {
	windows := []fsxtest.Window{
		{Name: "writing-snapshot", Want: "old"},
		{Name: "after-snapshot", From: "meta.wal-", Want: "old"},
		{Name: "after-wal-reset", From: "meta.commit", Want: "old"},
		{Name: "after-commit", Op: "syncdir", Want: "new"},
	}
	fsxtest.Sweep(t, []string{"old", "new"}, windows, func(t *testing.T, ffs *fsx.Fault, n int) string {
		dir := t.TempDir()
		l, db := openLog(t, dir, Options{FS: ffs})
		wire(db, l)
		putN(db, "b", 0, 5)
		mustSync(t, l)
		oldState := db.Snapshot()
		putN(db, "b", 5, 5) // pending at compaction time
		newState := db.Snapshot()
		ffs.Inject(fsx.Crash, n, "")
		if _, err := l.Compact(); err != nil && !ffs.Crashed() {
			t.Fatalf("Compact: %v", err)
		}
		l.Close()
		before := epochFiles(t, dir)

		got, rec := reopenSnap(t, dir)
		state := stateOf(got, oldState, newState)
		if wantEpoch := map[string]uint64{"old": 1, "new": 2}[state]; rec.Epoch != wantEpoch {
			t.Fatalf("reopened epoch %d with the %s state", rec.Epoch, state)
		}
		stale := 0
		for _, name := range before {
			if name != snapName(rec.Epoch) && name != walName(rec.Epoch) {
				stale++
			}
		}
		if rec.StaleFilesRemoved != stale {
			t.Fatalf("recovery reports %d stale files swept, the crash left %d of %v", rec.StaleFilesRemoved, stale, before)
		}
		if after := epochFiles(t, dir); !slices.Equal(after, []string{snapName(rec.Epoch), walName(rec.Epoch)}) {
			t.Fatalf("epoch %d reopened with files %v", rec.Epoch, after)
		}
		return state
	})
}

// epochFiles lists the snapshot and WAL files in dir, leftovers included.
func epochFiles(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		if name := de.Name(); strings.HasPrefix(name, "meta.snap-") || strings.HasPrefix(name, "meta.wal-") {
			names = append(names, name)
		}
	}
	return names
}

// TestStickyFailureRefusesFurtherCommits fails each fsync, then each
// write, of a Sync in turn. Every failure poisons the log: the Sync
// errors, a second Sync with the fault gone refuses without touching the
// disk (the log never retries and lies), and Close reports the failure.
// Reopening lands on the last acknowledged state when the fault hit the
// batch itself — a torn write truncated away, an unsynced batch lost —
// and on the new one when it hit the watermark commit after the batch was
// fsynced, because replay applies a whole marked batch.
func TestStickyFailureRefusesFurtherCommits(t *testing.T) {
	for _, kind := range []fsx.Kind{fsx.FailSync, fsx.ShortWrite} {
		for n := 1; ; n++ {
			dir := t.TempDir()
			ffs := fsx.NewFault()
			l, db := openLog(t, dir, Options{FS: ffs})
			wire(db, l)
			putN(db, "b", 0, 2)
			mustSync(t, l)
			oldState := db.Snapshot()
			putN(db, "b", 2, 2)
			newState := db.Snapshot()
			ffs.Inject(kind, n, "")
			_, err := l.Sync()
			if err == nil {
				if n == 1 {
					t.Fatalf("fault %d never fired", kind)
				}
				l.Close()
				break
			}
			trace := ffs.Trace()
			hit := trace[len(trace)-1]
			if l.Err() == nil {
				t.Fatalf("fault %d at %v: failure not sticky", kind, hit)
			}
			if _, err := l.Sync(); err == nil || len(ffs.Trace()) != len(trace) {
				t.Fatalf("fault %d at %v: second Sync = %v after %d more calls", kind, hit, err, len(ffs.Trace())-len(trace))
			}
			if err := l.Close(); err == nil {
				t.Fatalf("fault %d at %v: Close did not surface the failure", kind, hit)
			}
			got, rec := reopenSnap(t, dir)
			want := "new"
			if strings.HasPrefix(hit.File, "meta.wal-") {
				want = "old"
			}
			if state := stateOf(got, oldState, newState); state != want {
				t.Fatalf("fault %d at %v recovered %q, want %q", kind, hit, state, want)
			}
			if kind == fsx.ShortWrite && want == "old" && !rec.Torn {
				t.Fatalf("short batch write not truncated on reopen: %+v", rec)
			}
		}
	}
}
