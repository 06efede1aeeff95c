package diskstore_test

// Streaming-specific crash tests: gets are served straight from segment
// offsets, so damage on disk must surface through the streamed read path
// — a torn record must not be openable at all, and a record whose bytes
// rot after the index was written must fail its in-flight CRC check
// rather than hand corrupt data to a caller.

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"testing/iotest"

	"expelliarmus/internal/blobstore"
	"expelliarmus/internal/blobstore/blobstoretest"
	"expelliarmus/internal/blobstore/diskstore"
)

// TestTornTailRefusesStreamedRead cuts the last record mid-payload and
// reopens: the torn blob must not be streamable (Open says no), while the
// record before the tear still streams end to end.
func TestTornTailRefusesStreamedRead(t *testing.T) {
	dir := t.TempDir()
	s, ffs := openFault(t, dir, diskstore.Options{})
	intact := bytes.Repeat([]byte("whole "), 4000)
	intactID, _ := put(s, intact)
	before := fileSize(t, lastSegment(t, dir))
	tornID, _ := put(s, bytes.Repeat([]byte("torn "), 4000))
	after := fileSize(t, lastSegment(t, dir))
	syncData(t, s)
	crash(t, ffs)
	if err := os.Truncate(lastSegment(t, dir), before+(after-before)/2); err != nil {
		t.Fatal(err)
	}

	r := open(t, dir, diskstore.Options{})
	defer r.Close()
	if !r.Recovery().Torn() {
		t.Fatalf("tear not reported: %+v", r.Recovery())
	}
	if rc, _, err := r.Open(tornID); err == nil {
		rc.Close()
		t.Fatalf("Open succeeded on a torn record")
	} else if !errors.Is(err, blobstore.ErrNotFound) {
		// The torn tail was truncated away at recovery, so the blob is
		// absent, not corrupt — the store already healed around it.
		t.Fatalf("Open(torn) = %v, want ErrNotFound", err)
	}
	rc, size, err := r.Open(intactID)
	if err != nil || size != int64(len(intact)) {
		t.Fatalf("Open(intact) = %v, %d; want nil, %d", err, size, len(intact))
	}
	defer rc.Close()
	got, err := io.ReadAll(rc)
	if err != nil || !bytes.Equal(got, intact) {
		t.Fatalf("streamed read of pre-tear blob differs (err=%v)", err)
	}
}

// TestOpenCorruptHeaderIsNotAbsence damages a stored record's header in
// place on the live store and runs the shared corruption contract: Open
// must say "corrupt", never "not found" — conflating the two turned
// integrity incidents into silent 404s. The damage must also trip the
// store's sticky failure so later mutations refuse rather than append
// after known rot.
func TestOpenCorruptHeaderIsNotAbsence(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, diskstore.Options{})
	blobstoretest.RunOpenCorrupt(t, s, func(t *testing.T, id blobstore.ID, data []byte) {
		if _, err := s.Sync(); err != nil {
			t.Fatalf("Sync: %v", err)
		}
		// Locate the record by its payload and break the kind byte, which
		// sits immediately before the payload in the record framing. The
		// write goes to the same inode the store holds open, so its
		// positional reads observe the damage.
		seg := lastSegment(t, dir)
		raw, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		pos := bytes.Index(raw, data[:64])
		if pos <= 0 {
			t.Fatal("payload not found in segment")
		}
		f, err := os.OpenFile(seg, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteAt([]byte{0xFF}, int64(pos-1)); err != nil {
			t.Fatal(err)
		}
	})
	if err := s.Err(); err == nil {
		t.Fatalf("corrupt Open did not trip the sticky failure")
	} else if !errors.Is(err, blobstore.ErrCorrupt) {
		t.Fatalf("sticky failure = %v, want ErrCorrupt", err)
	}
	if _, _, _, err := s.PutReader(bytes.NewReader([]byte("after rot"))); err == nil {
		t.Fatalf("PutReader accepted data after a detected corruption")
	}
	if err := s.Close(); !errors.Is(err, blobstore.ErrCorrupt) {
		t.Fatalf("Close = %v, want the sticky corruption", err)
	}
}

// TestPostHocRotFailsStreamedCRC flips payload bytes of a fully synced
// record after the store closed. Index-based load trusts the index, so
// the damage is only discoverable at read time: the streamed reader's
// incremental CRC must refuse to complete, and the materializing Get must
// report the blob unavailable rather than return rotten bytes.
func TestPostHocRotFailsStreamedCRC(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, diskstore.Options{})
	data := bytes.Repeat([]byte("payload "), 8192)
	id, _ := put(s, data)
	if _, err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Rot a byte deep inside the record's payload.
	seg := lastSegment(t, dir)
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	pos := bytes.Index(raw, data[:64])
	if pos < 0 {
		t.Fatal("payload not found in segment")
	}
	raw[pos+1000] ^= 0x40
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	r := open(t, dir, diskstore.Options{})
	defer r.Close()
	if r.Recovery().IndexRebuilt {
		t.Fatalf("index unexpectedly rebuilt; rot would be caught at replay, not read")
	}
	rc, _, err := r.Open(id)
	if err != nil {
		t.Fatalf("Open refused a catalogued blob before any read: %v", err)
	}
	defer rc.Close()
	if _, err := io.ReadAll(rc); err == nil {
		t.Fatalf("streamed read of a rotten record completed without error")
	}
	if _, ok := blobstoretest.Get(r, id); ok {
		t.Fatalf("Get returned rotten bytes")
	}
}

// spoolFiles lists the put-*.tmp spill files a streaming put spools
// oversized payloads into.
func spoolFiles(t *testing.T, dir string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "put-*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFailedStreamedPutUnlinksSpoolImmediately is the regression for the
// daemon spool leak: a streamed put whose source fails after crossing the
// spill threshold must delete its put-*.tmp file on the error path itself
// — on the live store, not at the next reopen's stray sweep. A daemon
// never reopens, so anything less accumulates a temp file per failed
// upload until the disk fills.
func TestFailedStreamedPutUnlinksSpoolImmediately(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, diskstore.Options{})
	defer s.Close()

	boom := errors.New("source died mid-upload")
	// Well past the 1 MiB spill threshold before the source fails, so the
	// spool is certainly file-backed.
	src := io.MultiReader(bytes.NewReader(bytes.Repeat([]byte("spilled-payload|"), 1<<17)), iotest.ErrReader(boom))
	if _, _, _, err := s.PutReader(src); !errors.Is(err, boom) {
		t.Fatalf("PutReader with failing source = %v, want the source's error", err)
	}
	if left := spoolFiles(t, dir); len(left) != 0 {
		t.Fatalf("failed streamed put leaked spool files: %v", left)
	}
	if n := len(s.IDs()); n != 0 {
		t.Fatalf("failed put changed the store: %d blobs", n)
	}

	// The error path must not have wedged anything: the same payload
	// streams in cleanly afterwards, and a successful spilled put cleans
	// its spool too.
	data := bytes.Repeat([]byte("spilled-payload|"), 1<<17)
	id, n, stored, err := s.PutReader(bytes.NewReader(data))
	if err != nil || !stored || n != int64(len(data)) {
		t.Fatalf("PutReader after failed put = id %v, n %d, stored %v, err %v", id, n, stored, err)
	}
	if left := spoolFiles(t, dir); len(left) != 0 {
		t.Fatalf("successful streamed put left spool files behind: %v", left)
	}
	rc, size, err := s.Open(id)
	if err != nil || size != int64(len(data)) {
		t.Fatalf("Open after recovery from failed put: %v, %d", err, size)
	}
	defer rc.Close()
	if got, err := io.ReadAll(rc); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("streamed read differs after failed-put recovery (err=%v)", err)
	}
}

// TestFailedSmallStreamedPutLeavesNoTrace is the in-memory-spool sibling:
// a source failing under the spill threshold must leave neither spool
// files nor any store mutation behind.
func TestFailedSmallStreamedPutLeavesNoTrace(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, diskstore.Options{})
	defer s.Close()

	boom := errors.New("tiny source died")
	src := io.MultiReader(bytes.NewReader([]byte("just a few bytes")), iotest.ErrReader(boom))
	if _, _, _, err := s.PutReader(src); !errors.Is(err, boom) {
		t.Fatalf("PutReader with failing source = %v, want the source's error", err)
	}
	if left := spoolFiles(t, dir); len(left) != 0 {
		t.Fatalf("failed in-memory put leaked spool files: %v", left)
	}
	if n := len(s.IDs()); n != 0 {
		t.Fatalf("failed put changed the store: %d blobs", n)
	}
}
