package diskstore_test

// Crash-recovery tests: each scenario builds a store on an fsx.Fault,
// cuts the power (every write no fsync covered is lost; handles and the
// directory lock are released) and/or damages the files the way an
// interrupted write would, then reopens on the real file system and
// checks that every fully-committed blob survives and the damage is
// reported — never panicked on.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"syscall"
	"testing"

	"expelliarmus/internal/blobstore"
	"expelliarmus/internal/blobstore/blobstoretest"
	"expelliarmus/internal/blobstore/diskstore"
	"expelliarmus/internal/fsx"
)

// openFault opens a store on a fresh fsx.Fault, for tests that crash it.
func openFault(t *testing.T, dir string, opts diskstore.Options) (*diskstore.Store, *fsx.Fault) {
	t.Helper()
	ffs := fsx.NewFault()
	opts.FS = ffs
	return open(t, dir, opts), ffs
}

// crash cuts the power under a store opened by openFault.
func crash(t *testing.T, ffs *fsx.Fault) {
	t.Helper()
	if err := ffs.Crash(); err != nil {
		t.Fatalf("crash: %v", err)
	}
}

// syncData makes a store's log appends durable without an index commit.
func syncData(t *testing.T, s *diskstore.Store) {
	t.Helper()
	if _, err := s.SyncData(); err != nil {
		t.Fatalf("SyncData: %v", err)
	}
}

// lastSegment returns the path of the highest-numbered segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, de := range des {
		if strings.HasPrefix(de.Name(), "seg-") {
			segs = append(segs, de.Name())
		}
	}
	if len(segs) == 0 {
		t.Fatal("no segment files")
	}
	sort.Strings(segs)
	return filepath.Join(dir, segs[len(segs)-1])
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestRecoverUnsyncedTail crashes the store after appends that SyncData
// made durable but no index commit covers: no index exists, yet replay
// must recover every whole record — and only those, since an append no
// fsync covered dies with the power.
func TestRecoverUnsyncedTail(t *testing.T) {
	dir := t.TempDir()
	s, ffs := openFault(t, dir, diskstore.Options{})
	var ids []blobstore.ID
	for i := 0; i < 10; i++ {
		id, _ := put(s, []byte(fmt.Sprintf("unsynced-%d", i)))
		ids = append(ids, id)
	}
	syncData(t, s)
	lost, _ := put(s, []byte("never fsynced"))
	// Crash: no Sync, no Close.
	crash(t, ffs)

	r := open(t, dir, diskstore.Options{})
	defer r.Close()
	rec := r.Recovery()
	if rec.ReplayedRecords != 10 {
		t.Fatalf("replayed %d records, want 10", rec.ReplayedRecords)
	}
	if rec.Torn() {
		t.Fatalf("no tear expected: %+v", rec)
	}
	for i, id := range ids {
		if got, ok := blobstoretest.Get(r, id); !ok || !bytes.Equal(got, []byte(fmt.Sprintf("unsynced-%d", i))) {
			t.Fatalf("blob %d lost without a tear", i)
		}
	}
	if r.Refs(lost) > 0 {
		t.Fatalf("an append no fsync covered survived the power cut")
	}
}

// TestRecoverBeyondSyncWatermark syncs part of the history, appends more,
// crashes: the synced part loads from the index and the rest replays.
func TestRecoverBeyondSyncWatermark(t *testing.T) {
	dir := t.TempDir()
	s, ffs := openFault(t, dir, diskstore.Options{})
	idA, _ := put(s, []byte("committed-by-index"))
	if _, err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	idB, _ := put(s, []byte("only-in-log"))
	if _, _, _, err := s.PutReader(bytes.NewReader([]byte("committed-by-index"))); err != nil {
		t.Fatalf("dedup put: %v", err)
	}
	syncData(t, s)
	crash(t, ffs)

	r := open(t, dir, diskstore.Options{})
	defer r.Close()
	if rec := r.Recovery(); rec.ReplayedRecords != 2 || rec.IndexRebuilt {
		t.Fatalf("recovery = %+v, want 2 replayed records from a good index", rec)
	}
	if _, ok := blobstoretest.Get(r, idB); !ok {
		t.Fatalf("post-watermark put lost")
	}
	if got := r.Refs(idA); got != 2 {
		t.Fatalf("post-watermark addref lost: refs = %d, want 2", got)
	}
}

// TestTornTailTruncated cuts the final record in half — a crash
// mid-append — and asserts reopen drops exactly the torn record, keeps
// everything before it, and reports the truncation.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, ffs := openFault(t, dir, diskstore.Options{})
	whole, _ := put(s, []byte("survives the tear"))
	before := fileSize(t, lastSegment(t, dir))
	torn, _ := put(s, []byte("this record gets cut in half"))
	after := fileSize(t, lastSegment(t, dir))
	syncData(t, s)
	// Crash, then the tail of the last write never reached the platter.
	crash(t, ffs)
	cut := before + (after-before)/2
	if err := os.Truncate(lastSegment(t, dir), cut); err != nil {
		t.Fatal(err)
	}

	r := open(t, dir, diskstore.Options{})
	defer r.Close()
	rec := r.Recovery()
	if !rec.Torn() {
		t.Fatalf("tear not reported: %+v", rec)
	}
	if rec.TornOffset != before || rec.DroppedBytes != cut-before {
		t.Fatalf("tear geometry = %+v, want offset %d dropping %d", rec, before, cut-before)
	}
	if got, ok := blobstoretest.Get(r, whole); !ok || !bytes.Equal(got, []byte("survives the tear")) {
		t.Fatalf("fully-committed blob lost to the tear")
	}
	if r.Refs(torn) > 0 {
		t.Fatalf("half-written blob resurrected")
	}
	if fileSize(t, lastSegment(t, dir)) != before {
		t.Fatalf("segment not truncated to last whole record")
	}

	// The store must accept writes after the tear, and they must persist.
	again, stored := put(r, []byte("written after recovery"))
	if !stored {
		t.Fatalf("post-recovery Put refused")
	}
	if err := r.Close(); err != nil {
		t.Fatalf("post-recovery Close: %v", err)
	}
	r2 := open(t, dir, diskstore.Options{})
	defer r2.Close()
	if _, ok := blobstoretest.Get(r2, again); !ok {
		t.Fatalf("post-recovery write lost")
	}
}

// TestCorruptCRCAtTail flips one payload bit in the final record: the
// checksum must catch it and recovery must drop the record like a tear.
func TestCorruptCRCAtTail(t *testing.T) {
	dir := t.TempDir()
	s, ffs := openFault(t, dir, diskstore.Options{})
	keep, _ := put(s, []byte("intact record"))
	before := fileSize(t, lastSegment(t, dir))
	bad, _ := put(s, []byte("record whose bits rot"))
	syncData(t, s)
	crash(t, ffs)

	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x40 // flip a payload bit in the last record
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r := open(t, dir, diskstore.Options{})
	defer r.Close()
	rec := r.Recovery()
	if !rec.Torn() || rec.TornOffset != before {
		t.Fatalf("CRC mismatch not treated as torn tail: %+v", rec)
	}
	if _, ok := blobstoretest.Get(r, keep); !ok {
		t.Fatalf("intact record lost")
	}
	if r.Refs(bad) > 0 {
		t.Fatalf("checksum-failing record admitted")
	}
}

// TestCorruptionAmidTailRefused flips a bit in a record that has a whole,
// valid record after it in the last segment: a genuine torn append leaves
// only garbage beyond the failure, so a parseable record there proves real
// corruption of committed data and Open must refuse rather than silently
// truncate the intact record away with the damage.
func TestCorruptionAmidTailRefused(t *testing.T) {
	dir := t.TempDir()
	s, ffs := openFault(t, dir, diskstore.Options{})
	put(s, []byte("first record gets damaged"))
	mid := fileSize(t, lastSegment(t, dir))
	put(s, []byte("second record stays whole"))
	syncData(t, s)
	crash(t, ffs)

	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[mid-3] ^= 0x20 // payload bit inside the FIRST record
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := diskstore.Open(dir, diskstore.Options{}); err == nil {
		t.Fatalf("Open truncated a corrupt record that had a valid record after it")
	}
}

// TestCorruptionBeforeTailRefused damages a record that is *not* at the
// log tail (an earlier segment): that is real corruption, not a crash
// artifact, and Open must refuse it with an error rather than silently
// dropping committed history.
func TestCorruptionBeforeTailRefused(t *testing.T) {
	dir := t.TempDir()
	s, ffs := openFault(t, dir, diskstore.Options{MaxSegmentBytes: 64})
	for i := 0; i < 12; i++ {
		put(s, []byte(fmt.Sprintf("multi-segment-%03d-%030d", i, i)))
	}
	// Crash with several segments on disk and no index.
	syncData(t, s)
	crash(t, ffs)

	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, de := range des {
		if strings.HasPrefix(de.Name(), "seg-") {
			segs = append(segs, de.Name())
		}
	}
	sort.Strings(segs)
	if len(segs) < 3 {
		t.Fatalf("test needs ≥3 segments, got %d", len(segs))
	}
	mid := filepath.Join(dir, segs[len(segs)/2])
	data, err := os.ReadFile(mid)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(mid, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := diskstore.Open(dir, diskstore.Options{MaxSegmentBytes: 64}); err == nil {
		t.Fatalf("Open accepted corruption in a non-tail segment")
	}
}

// TestCorruptIndexFallsBackToReplay damages the committed index: because
// segments hold the complete operation history, Open rebuilds the exact
// state from the log and reports the rebuild.
func TestCorruptIndexFallsBackToReplay(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, diskstore.Options{})
	idA, _ := put(s, []byte("first"))
	idB, _ := put(s, []byte("second"))
	if _, _, _, err := s.PutReader(bytes.NewReader([]byte("second"))); err != nil {
		t.Fatal(err)
	}
	idGone, _ := put(s, []byte("released before sync"))
	if err := s.Release(idGone); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	idx := filepath.Join(dir, "index")
	img, err := os.ReadFile(idx)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)/2] ^= 0x01
	if err := os.WriteFile(idx, img, 0o644); err != nil {
		t.Fatal(err)
	}

	r := open(t, dir, diskstore.Options{})
	defer r.Close()
	rec := r.Recovery()
	if !rec.IndexRebuilt {
		t.Fatalf("index rebuild not reported: %+v", rec)
	}
	if _, ok := blobstoretest.Get(r, idA); !ok {
		t.Fatalf("blob A lost in rebuild")
	}
	if got := r.Refs(idB); got != 2 {
		t.Fatalf("refcount not reconstructed from log: %d, want 2", got)
	}
	if r.Refs(idGone) > 0 {
		t.Fatalf("released blob resurrected by rebuild")
	}
}

// TestLeftoverIndexTmpIgnored simulates a crash between writing index.tmp
// and renaming it: the stale temp file must not disturb recovery and the
// next sync must still commit cleanly.
func TestLeftoverIndexTmpIgnored(t *testing.T) {
	dir := t.TempDir()
	s, ffs := openFault(t, dir, diskstore.Options{})
	id, _ := put(s, []byte("durable"))
	if _, err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	crash(t, ffs)
	if err := os.WriteFile(filepath.Join(dir, "index.tmp"), []byte("half-written junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	r := open(t, dir, diskstore.Options{})
	defer r.Close()
	if _, ok := blobstoretest.Get(r, id); !ok {
		t.Fatalf("blob lost with stale index.tmp present")
	}
	if _, err := r.Sync(); err != nil {
		t.Fatalf("Sync with stale index.tmp: %v", err)
	}
}

// TestReleaseDurableOnlyAtSync pins the deferred-release contract: a
// release that was never Synced is lost by a crash — the blob is
// resurrected with its pre-release reference count — while a synced
// release stays collected. Losing a release can only create an orphan;
// the dangerous direction (a durable release deleting a blob that
// still-durable metadata references) must be impossible.
func TestReleaseDurableOnlyAtSync(t *testing.T) {
	dir := t.TempDir()
	s, ffs := openFault(t, dir, diskstore.Options{})
	id, _ := put(s, []byte("released but not synced"))
	if _, _, _, err := s.PutReader(bytes.NewReader([]byte("released but not synced"))); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Release(id); err != nil {
		t.Fatal(err)
	}
	if err := s.Release(id); err != nil {
		t.Fatal(err)
	}
	if s.Refs(id) > 0 {
		t.Fatalf("blob live after releasing every reference")
	}
	// Crash: releases were applied in memory but never logged.
	crash(t, ffs)

	r := open(t, dir, diskstore.Options{})
	if r.Refs(id) == 0 {
		t.Fatalf("unsynced release became durable: blob gone after reopen")
	}
	if got := r.Refs(id); got != 2 {
		t.Fatalf("resurrected refs = %d, want pre-release 2", got)
	}
	// The same releases, this time synced, must stick across reopen.
	if err := r.Release(id); err != nil {
		t.Fatal(err)
	}
	if err := r.Release(id); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2 := open(t, dir, diskstore.Options{})
	defer r2.Close()
	if r2.Refs(id) > 0 {
		t.Fatalf("synced release not durable: blob resurrected")
	}
}

// TestSecondOpenRefused pins the single-instance lock: while one store
// owns a directory, a second Open — which would append to the same
// segments while tracking offsets independently — must fail, and the
// directory must become openable again once the first store lets go.
func TestSecondOpenRefused(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, diskstore.Options{})
	if _, err := diskstore.Open(dir, diskstore.Options{}); err == nil {
		t.Fatalf("second Open of a locked store succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := open(t, dir, diskstore.Options{})
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMissingSegmentRefused deletes a segment file the committed index
// references: Open must refuse with an error — the data is gone, and
// silently serving "not found" for durable blobs would be data loss
// masquerading as absence.
func TestMissingSegmentRefused(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, diskstore.Options{MaxSegmentBytes: 64})
	for i := 0; i < 12; i++ {
		put(s, []byte(fmt.Sprintf("doomed-segment-%03d-%030d", i, i)))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(lastSegment(t, dir)); err != nil {
		t.Fatal(err)
	}
	if _, err := diskstore.Open(dir, diskstore.Options{MaxSegmentBytes: 64}); err == nil {
		t.Fatalf("Open accepted an index referencing a deleted segment")
	}
}

// TestTornBeforeMagic crashes so early the newest segment has not even a
// complete magic: recovery truncates it to nothing and the store keeps
// working.
func TestTornBeforeMagic(t *testing.T) {
	dir := t.TempDir()
	s, ffs := openFault(t, dir, diskstore.Options{})
	id, _ := put(s, []byte("in segment one"))
	if _, err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	// Fake a crash during the very first write of segment 2.
	crash(t, ffs)
	if err := os.WriteFile(filepath.Join(dir, "seg-00000002.log"), []byte("EXP"), 0o644); err != nil {
		t.Fatal(err)
	}

	r := open(t, dir, diskstore.Options{})
	defer r.Close()
	rec := r.Recovery()
	if !rec.Torn() || rec.TornSegment != 2 || rec.TornOffset != 0 {
		t.Fatalf("torn-before-magic not handled: %+v", rec)
	}
	if _, ok := blobstoretest.Get(r, id); !ok {
		t.Fatalf("earlier segment lost")
	}
	id2, stored := put(r, []byte("after recovery"))
	if !stored {
		t.Fatalf("Put after magic truncation refused")
	}
	if _, ok := blobstoretest.Get(r, id2); !ok {
		t.Fatalf("blob written into recovered segment unreadable")
	}
}

// refusesAfterFailure checks the sticky-failure contract after an injected
// I/O error: the store reports the failure, a second Sync refuses without
// touching the disk (the store never retries and lies), and Close
// surfaces the error.
func refusesAfterFailure(t *testing.T, s *diskstore.Store, ffs *fsx.Fault) {
	t.Helper()
	if s.Err() == nil {
		t.Fatal("failure not sticky")
	}
	calls := len(ffs.Trace())
	if _, err := s.Sync(); err == nil || len(ffs.Trace()) != calls {
		t.Fatalf("Sync after the failure = %v after %d more calls", err, len(ffs.Trace())-calls)
	}
	if err := s.Close(); err == nil {
		t.Fatal("Close did not surface the failure")
	}
}

// TestFsyncFailureIsSticky fails one fsync at each place the store issues
// one — SyncData, the sync of the outgoing segment before a roll, and the
// index commit — and checks the store goes sticky and that reopening on
// the real file system lands on the last acknowledged state: a failed
// fsync loses the writes it was meant to persist.
func TestFsyncFailureIsSticky(t *testing.T) {
	blob := func(s string) []byte { return []byte(fmt.Sprintf("%-40s", s)) }
	cases := []struct {
		name  string
		nth   int // which fsync of a file named file* fails
		file  string
		run   func(t *testing.T, s *diskstore.Store) error
		acked []string // blobs the reopened store must hold; others must be gone
	}{
		{"SyncData", 1, "seg-", func(t *testing.T, s *diskstore.Store) error {
			put(s, blob("B"))
			_, err := s.SyncData()
			return err
		}, []string{"A"}},
		{"PreRoll", 2, "seg-", func(t *testing.T, s *diskstore.Store) error {
			put(s, blob("B")) // rolls to a fresh segment (fsync 1), B unsynced in it
			put(s, blob("C")) // rolls again: the outgoing segment's fsync 2 fails
			return s.Err()
		}, []string{"A"}},
		{"IndexCommit", 1, "index", func(t *testing.T, s *diskstore.Store) error {
			put(s, blob("B"))
			syncData(t, s)
			_, err := s.Sync()
			return err
		}, []string{"A", "B"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := diskstore.Options{MaxSegmentBytes: 64}
			s, ffs := openFault(t, dir, opts)
			put(s, blob("A"))
			if _, err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			ffs.Inject(fsx.FailSync, tc.nth, tc.file)
			if err := tc.run(t, s); !errors.Is(err, syscall.EIO) {
				t.Fatalf("operation with a failing fsync = %v, want EIO", err)
			}
			refusesAfterFailure(t, s, ffs)

			r := open(t, dir, opts)
			defer r.Close()
			for _, name := range []string{"A", "B", "C"} {
				if want := slices.Contains(tc.acked, name); (r.Refs(blobstore.Sum(blob(name))) > 0) != want {
					t.Fatalf("blob %s present = %v after reopen, want %v", name, !want, want)
				}
			}
		})
	}
}

// TestShortSegmentWriteIsSticky runs a streamed put past the spill
// threshold whose segment append comes back short with ENOSPC: the put
// fails, the store goes sticky, and reopening truncates the torn record
// while the blob acknowledged before it stays intact.
func TestShortSegmentWriteIsSticky(t *testing.T) {
	dir := t.TempDir()
	s, ffs := openFault(t, dir, diskstore.Options{})
	acked, _ := put(s, []byte("acknowledged before the fault"))
	if _, err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	// The record header is the first segment write; the first payload
	// chunk, the second, comes back short.
	ffs.Inject(fsx.ShortWrite, 2, "seg-")
	big := bytes.Repeat([]byte("spilled|"), 2<<20/8)
	if _, _, _, err := s.PutReader(bytes.NewReader(big)); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("PutReader with a short segment write = %v, want ENOSPC", err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "put-*.tmp")); len(left) != 0 {
		t.Fatalf("failed put left its spool behind: %v", left)
	}
	refusesAfterFailure(t, s, ffs)

	r := open(t, dir, diskstore.Options{})
	defer r.Close()
	if !r.Recovery().Torn() {
		t.Fatalf("torn record not truncated: %+v", r.Recovery())
	}
	if got, ok := blobstoretest.Get(r, acked); !ok || string(got) != "acknowledged before the fault" {
		t.Fatal("blob acknowledged before the fault lost")
	}
	if r.Refs(blobstore.Sum(big)) > 0 {
		t.Fatal("half-written blob resurrected")
	}
}
