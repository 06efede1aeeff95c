package bench

import (
	"os"
	"path/filepath"
	"testing"
)

// TestPersistenceScenario runs the disk-backend persistence scenario and
// pins the PR's headline acceptance criterion at system level: the sync
// after publishing one extra image writes only that image's segments, a
// strict subset of the first full sync, and every VMI is retrievable from
// the reopened repository.
func TestPersistenceScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("persistence scenario skipped in -short mode")
	}
	r := NewRunner()
	r.StoreRoot = t.TempDir()
	res, err := r.Persistence()
	if err != nil {
		t.Fatalf("Persistence: %v", err)
	}
	if res.FullSync.SegmentBytes == 0 || res.FullSync.MetaBytes == 0 {
		t.Fatalf("full sync wrote nothing: %+v", res.FullSync)
	}
	if res.IncrementalSync.SegmentBytes == 0 {
		t.Fatalf("incremental sync wrote no blob bytes for a new image: %+v", res.IncrementalSync)
	}
	if res.IncrementalSync.SegmentBytes >= res.FullSync.SegmentBytes {
		t.Fatalf("incremental sync (%d bytes) not smaller than full sync (%d bytes)",
			res.IncrementalSync.SegmentBytes, res.FullSync.SegmentBytes)
	}
	if !res.RetrievedAll {
		t.Fatalf("not all VMIs retrievable after reopen")
	}
	// The repository directory must actually hold segment files, an index
	// and the metadata snapshot + WAL pair with its commit record.
	if _, err := os.Stat(filepath.Join(res.Dir, "meta.commit")); err != nil {
		t.Fatalf("meta.commit missing: %v", err)
	}
	for _, pat := range []string{"meta.snap-*", "meta.wal-*"} {
		m, err := filepath.Glob(filepath.Join(res.Dir, pat))
		if err != nil || len(m) != 1 {
			t.Fatalf("want exactly one %s file, got %v (err %v)", pat, m, err)
		}
	}
	segs, err := filepath.Glob(filepath.Join(res.Dir, "blobs", "*"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no blob files under %s/blobs: %v", res.Dir, err)
	}
	if s := res.String(); s == "" {
		t.Fatalf("empty rendering")
	}
}
