package diskstore_test

import (
	"bytes"
	"fmt"
	"testing"

	"expelliarmus/internal/blobstore"
	"expelliarmus/internal/blobstore/blobstoretest"
	"expelliarmus/internal/blobstore/diskstore"
)

func open(t *testing.T, dir string, opts diskstore.Options) *diskstore.Store {
	t.Helper()
	s, err := diskstore.Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

// put stores data through PutReader and reports the ID and whether it was
// newly stored. Like the store's own puts before a failure test reads Err,
// it swallows the error: the failure tests check stickiness through Err,
// Sync and Close, and what a reopen recovers.
func put(s *diskstore.Store, data []byte) (blobstore.ID, bool) {
	id, _, stored, _ := s.PutReader(bytes.NewReader(data))
	return id, stored
}

// TestConformance runs the shared backend conformance suite against the
// disk store — the same suite the in-memory store passes.
func TestConformance(t *testing.T) {
	blobstoretest.Run(t, func(t *testing.T) blobstore.Backend {
		s := open(t, t.TempDir(), diskstore.Options{})
		t.Cleanup(func() { s.Close() })
		return s
	})
}

// TestConformanceTinySegments reruns the full suite with a roll threshold
// small enough that every few records open a new segment file, so the
// multi-segment read and replay paths see the same contract.
func TestConformanceTinySegments(t *testing.T) {
	blobstoretest.Run(t, func(t *testing.T) blobstore.Backend {
		s := open(t, t.TempDir(), diskstore.Options{MaxSegmentBytes: 128})
		t.Cleanup(func() { s.Close() })
		return s
	})
}

// TestReopenPreservesState closes a synced store and reopens it, checking
// contents, reference counts and aggregates all survive.
func TestReopenPreservesState(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, diskstore.Options{MaxSegmentBytes: 256})
	type want struct {
		data []byte
		refs int
	}
	wants := map[blobstore.ID]want{}
	var totalBytes int64
	for i := 0; i < 30; i++ {
		data := []byte(fmt.Sprintf("reopen-blob-%03d", i))
		id, _ := put(s, data)
		refs := 1
		for j := 0; j < i%3; j++ {
			if _, _, _, err := s.PutReader(bytes.NewReader(data)); err != nil {
				t.Fatalf("dedup put: %v", err)
			}
			refs++
		}
		wants[id] = want{data: data, refs: refs}
		totalBytes += int64(len(data))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r := open(t, dir, diskstore.Options{MaxSegmentBytes: 256})
	defer r.Close()
	if rec := r.Recovery(); rec.ReplayedRecords != 0 || rec.Torn() || rec.IndexRebuilt {
		t.Fatalf("clean reopen needed recovery: %+v", rec)
	}
	if len(r.IDs()) != len(wants) {
		t.Fatalf("reopened Len = %d, want %d", len(r.IDs()), len(wants))
	}
	if r.TotalBytes() != totalBytes {
		t.Fatalf("reopened TotalBytes = %d, want %d", r.TotalBytes(), totalBytes)
	}
	for id, w := range wants {
		got, ok := blobstoretest.Get(r, id)
		if !ok || !bytes.Equal(got, w.data) {
			t.Fatalf("reopened Get(%s) = %v", id, ok)
		}
		if r.Refs(id) != w.refs {
			t.Fatalf("reopened Refs(%s) = %d, want %d", id, r.Refs(id), w.refs)
		}
	}
}

// TestIncrementalSync pins the headline durability property: a sync after
// new appends flushes only the newly appended bytes, and a sync with no
// traffic flushes nothing.
func TestIncrementalSync(t *testing.T) {
	s := open(t, t.TempDir(), diskstore.Options{MaxSegmentBytes: 1 << 20})
	defer s.Close()

	var firstBytes int64
	for i := 0; i < 20; i++ {
		put(s, []byte(fmt.Sprintf("first-wave-%03d", i)))
	}
	st, err := s.Sync()
	if err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if st.Segments == 0 || st.SegmentBytes == 0 {
		t.Fatalf("first sync flushed nothing: %+v", st)
	}
	firstBytes = st.SegmentBytes

	// Quiet sync: nothing appended, nothing flushed.
	st, err = s.Sync()
	if err != nil {
		t.Fatalf("quiet Sync: %v", err)
	}
	if st.Segments != 0 || st.SegmentBytes != 0 {
		t.Fatalf("quiet sync flushed %+v", st)
	}

	// One small append: the flush must cover just that record, not the
	// whole store again.
	put(s, []byte("one-more"))
	st, err = s.Sync()
	if err != nil {
		t.Fatalf("incremental Sync: %v", err)
	}
	if st.Segments != 1 {
		t.Fatalf("incremental sync touched %d segments, want 1", st.Segments)
	}
	if st.SegmentBytes >= firstBytes {
		t.Fatalf("incremental sync flushed %d bytes, full store was %d", st.SegmentBytes, firstBytes)
	}
}

// TestSegmentRolling forces tiny segments and checks the store stays
// correct across many files.
func TestSegmentRolling(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, diskstore.Options{MaxSegmentBytes: 64})
	ids := make([]blobstore.ID, 40)
	for i := range ids {
		ids[i], _ = put(s, []byte(fmt.Sprintf("rolling-%03d-%030d", i, i)))
	}
	st, err := s.Sync()
	if err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if st.Segments < 10 {
		t.Fatalf("expected many tiny segments, synced %d", st.Segments)
	}
	for i, id := range ids {
		if _, ok := blobstoretest.Get(s, id); !ok {
			t.Fatalf("blob %d unreadable after rolling", i)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r := open(t, dir, diskstore.Options{MaxSegmentBytes: 64})
	defer r.Close()
	for i, id := range ids {
		if _, ok := blobstoretest.Get(r, id); !ok {
			t.Fatalf("blob %d unreadable after reopen", i)
		}
	}
}
