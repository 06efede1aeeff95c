package diskstore_test

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"expelliarmus/internal/blobstore"
	"expelliarmus/internal/blobstore/blobstoretest"
	"expelliarmus/internal/blobstore/diskstore"
	"expelliarmus/internal/fsx"
	"expelliarmus/internal/fsx/fsxtest"
	"expelliarmus/internal/recframe"
)

// segFiles counts seg-*.log files in dir.
func segFiles(t *testing.T, dir string) int {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	return len(m)
}

// churnStore fills a store with blobs spanning many tiny segments, keeping
// every 4th (with an extra reference, so absolute refcount replay is
// observable) and releasing the rest. Returns the kept IDs and their data.
func churnStore(t *testing.T, s *diskstore.Store) ([]blobstore.ID, [][]byte) {
	t.Helper()
	var keep []blobstore.ID
	var keepData [][]byte
	for i := 0; i < 48; i++ {
		data := bytes.Repeat([]byte(fmt.Sprintf("compact-blob-%03d|", i)), 8)
		id, stored := put(s, data)
		if !stored {
			t.Fatalf("blob %d not stored", i)
		}
		if i%4 == 0 {
			if _, _, _, err := s.PutReader(bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
			keep = append(keep, id)
			keepData = append(keepData, data)
		}
	}
	for i := 0; i < 48; i++ {
		if i%4 == 0 {
			continue
		}
		data := bytes.Repeat([]byte(fmt.Sprintf("compact-blob-%03d|", i)), 8)
		if err := s.Release(blobstore.Sum(data)); err != nil {
			t.Fatal(err)
		}
	}
	return keep, keepData
}

func verifyKeep(t *testing.T, s *diskstore.Store, keep []blobstore.ID, keepData [][]byte) {
	t.Helper()
	for i, id := range keep {
		got, ok := blobstoretest.Get(s, id)
		if !ok {
			t.Fatalf("kept blob %d missing", i)
		}
		if !bytes.Equal(got, keepData[i]) {
			t.Fatalf("kept blob %d not byte-identical", i)
		}
		if refs := s.Refs(id); refs != 2 {
			t.Fatalf("kept blob %d has %d refs, want 2", i, refs)
		}
	}
	if len(s.IDs()) != len(keep) {
		t.Fatalf("store holds %d blobs, want %d", len(s.IDs()), len(keep))
	}
}

// TestCompactReclaimsDeadSegments drives an explicit Compact over a store
// whose sealed segments are mostly garbage and checks the files actually
// shrink from disk while every survivor stays byte-identical — including
// across a reopen from the switched index.
func TestCompactReclaimsDeadSegments(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, diskstore.Options{MaxSegmentBytes: 512, CompactDeadRatio: -1})
	keep, keepData := churnStore(t, s)
	if _, err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	before := segFiles(t, dir)
	d, live := s.DiskStats(), s.TotalBytes()
	if d.DeadBytes == 0 {
		t.Fatal("no dead bytes after releasing most blobs")
	}
	st, err := s.Compact()
	if err != nil {
		t.Fatalf("compact: %v", err)
	}
	if st.SegmentsCompacted == 0 || st.BytesReclaimed == 0 || st.BlobsMoved == 0 {
		t.Fatalf("compact reclaimed nothing: %+v", st)
	}
	if after := segFiles(t, dir); after >= before {
		t.Fatalf("segment files did not shrink: %d -> %d", before, after)
	}
	d2, live2 := s.DiskStats(), s.TotalBytes()
	if d2.DiskBytes >= d.DiskBytes {
		t.Fatalf("disk bytes did not shrink: %d -> %d", d.DiskBytes, d2.DiskBytes)
	}
	if live2 != live {
		t.Fatalf("live bytes changed across compact: %d -> %d", live, live2)
	}
	verifyKeep(t, s, keep, keepData)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = open(t, dir, diskstore.Options{MaxSegmentBytes: 512})
	defer s.Close()
	if rec := s.Recovery(); rec.ReplayedRecords != 0 || rec.IndexRebuilt || rec.Torn() {
		t.Fatalf("reopen after clean compact+close had to recover: %+v", rec)
	}
	verifyKeep(t, s, keep, keepData)
}

// TestSyncAutoCompacts checks the dead-ratio trigger: with the threshold
// at its default, a Sync that flushes enough releases compacts in the same
// call and reports it in its stats.
func TestSyncAutoCompacts(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, diskstore.Options{MaxSegmentBytes: 512})
	defer s.Close()
	keep, keepData := churnStore(t, s)
	st, err := s.Sync()
	if err != nil {
		t.Fatal(err)
	}
	if st.SegmentsCompacted == 0 || st.BytesReclaimed == 0 {
		t.Fatalf("sync did not auto-compact: %+v", st)
	}
	verifyKeep(t, s, keep, keepData)
}

// TestCompactDisabledRatioNeverAuto checks that a negative ratio turns the
// automatic trigger off: syncs leave the garbage in place, and the dead
// bytes keep being reported.
func TestCompactDisabledRatioNeverAuto(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, diskstore.Options{MaxSegmentBytes: 512, CompactDeadRatio: -1})
	defer s.Close()
	churnStore(t, s)
	st, err := s.Sync()
	if err != nil {
		t.Fatal(err)
	}
	if st.SegmentsCompacted != 0 {
		t.Fatalf("sync compacted with the trigger disabled: %+v", st)
	}
	if st.DeadBytes == 0 {
		t.Fatal("sync stats report no dead bytes despite released blobs")
	}
}

// TestCompactKillMatrix crashes a compaction at each of its calls and
// checks reopen lands on the one consistent view: every kept blob
// byte-identical with its exact reference count, every released blob
// gone, and the only drift being orphaned bytes on disk (never missing
// data) — across the next full compact-and-reopen cycle too. The windows
// are the phases: moves appended, index switch, segments retired.
func TestCompactKillMatrix(t *testing.T) {
	opts := diskstore.Options{MaxSegmentBytes: 512, CompactDeadRatio: -1}
	windows := []fsxtest.Window{
		{Name: "MidRewrite"},
		{Name: "AfterRewrite", From: "index"},
		{Name: "AfterSwitch", From: "seg-"},
	}
	fsxtest.Sweep(t, []string{"catalog"}, windows, func(t *testing.T, ffs *fsx.Fault, n int) string {
		dir := t.TempDir()
		fo := opts
		fo.FS = ffs
		s := open(t, dir, fo)
		keep, keepData := churnStore(t, s)
		if _, err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		ffs.Inject(fsx.Crash, n, "")
		if _, err := s.Compact(); err != nil && !ffs.Crashed() {
			t.Fatalf("Compact: %v", err)
		}
		s.Close()

		s = open(t, dir, opts)
		defer s.Close()
		rec := s.Recovery()
		if rec.IndexRebuilt {
			t.Fatalf("recovery rebuilt the index: %+v", rec)
		}
		if tr := ffs.Trace(); ffs.Crashed() && tr[len(tr)-1].Op == "remove" && rec.SegmentsSwept == 0 {
			t.Fatalf("crash while retiring segments left none to sweep: %+v", rec)
		}
		verifyKeep(t, s, keep, keepData)
		if _, err := s.Compact(); err != nil {
			t.Fatalf("compact after recovery: %v", err)
		}
		verifyKeep(t, s, keep, keepData)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2 := open(t, dir, diskstore.Options{MaxSegmentBytes: 512})
		defer s2.Close()
		verifyKeep(t, s2, keep, keepData)
		return "catalog"
	})
}

// TestReaderPinsRetiringSegment opens a streaming reader, compacts the
// segment out from under it, and checks the evacuated file outlives its
// catalog death exactly until the reader closes.
func TestReaderPinsRetiringSegment(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, diskstore.Options{MaxSegmentBytes: 512, CompactDeadRatio: -1})
	defer s.Close()
	keep, keepData := churnStore(t, s)
	if _, err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	rc, _, err := s.Open(keep[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	// The reader's segment was evacuated but must still be on disk: file
	// count exceeds what the store accounts as open segments.
	if files, segs := segFiles(t, dir), s.DiskStats().Segments; files <= segs {
		t.Fatalf("no retiring segment pinned: %d files, %d open segments", files, segs)
	}
	got, err := io.ReadAll(rc)
	if err != nil {
		t.Fatalf("read from retiring segment: %v", err)
	}
	if !bytes.Equal(got, keepData[0]) {
		t.Fatal("retiring-segment read not byte-identical")
	}
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
	if files, segs := segFiles(t, dir), s.DiskStats().Segments; files != segs {
		t.Fatalf("retired file not deleted at last reader close: %d files, %d open segments", files, segs)
	}
	verifyKeep(t, s, keep, keepData)
}

// TestUnmarkedReleaseTailDropped simulates a Sync that died between
// appending its release batch and its commit marker: reopen must drop the
// whole batch (resurrecting the blobs — the safe direction) and truncate
// it off the log so no later marker can commit it.
func TestUnmarkedReleaseTailDropped(t *testing.T) {
	dir := t.TempDir()
	s, ffs := openFault(t, dir, diskstore.Options{})
	data := []byte("marker-discipline")
	id, _ := put(s, data)
	if _, err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	crash(t, ffs)
	// Forge the torn batch: a bare release record with no marker after it.
	seg := lastSegment(t, dir)
	before := fileSize(t, seg)
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	rec := recframe.Append(nil, 3 /* recRelease */, id[:])
	if _, err := f.Write(rec); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s = open(t, dir, diskstore.Options{})
	defer s.Close()
	rec2 := s.Recovery()
	if rec2.DroppedReleases != 1 {
		t.Fatalf("DroppedReleases = %d, want 1", rec2.DroppedReleases)
	}
	if s.Refs(id) == 0 {
		t.Fatal("blob of an uncommitted release batch did not resurrect")
	}
	if got := fileSize(t, seg); got != before {
		t.Fatalf("unmarked batch not truncated: %d bytes, want %d", got, before)
	}
}

// TestCompactUnderTraffic races explicit compactions against live puts,
// reads, releases and syncs. Run under -race in CI; the assertions here
// are pure correctness — every blob that survives reads back
// byte-identical through both Get and a streamed Open.
func TestCompactUnderTraffic(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, diskstore.Options{MaxSegmentBytes: 2048})
	defer s.Close()
	const workers, rounds = 4, 120
	var wg sync.WaitGroup
	errc := make(chan error, workers+2)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []blobstore.ID
			var data [][]byte
			for i := 0; i < rounds; i++ {
				d := bytes.Repeat([]byte(fmt.Sprintf("traffic-%d-%03d|", w, i)), 6)
				id, _ := put(s, d)
				mine = append(mine, id)
				data = append(data, d)
				// Read back an earlier blob through the streaming path
				// while compaction may be moving it. Only even indices:
				// odd ones get released below.
				j := (i / 2) * 2
				rc, _, err := s.Open(mine[j])
				if err != nil {
					errc <- fmt.Errorf("worker %d open: %w", w, err)
					return
				}
				got, err := io.ReadAll(rc)
				rc.Close()
				if err != nil || !bytes.Equal(got, data[j]) {
					errc <- fmt.Errorf("worker %d round %d: streamed read diverged (%v)", w, i, err)
					return
				}
				// Churn: release every odd-index blob right after publishing.
				if i%2 == 1 {
					if err := s.Release(mine[i]); err != nil {
						errc <- fmt.Errorf("worker %d release: %w", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds/4; i++ {
			if _, err := s.Sync(); err != nil {
				errc <- fmt.Errorf("sync: %w", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds/4; i++ {
			if _, err := s.Compact(); err != nil {
				errc <- fmt.Errorf("compact: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("store failed under traffic: %v", err)
	}
}
