package bench

import (
	"testing"

	"expelliarmus/internal/catalog"
	"expelliarmus/internal/core"
	"expelliarmus/internal/vmirepo"
)

// TestSyncDeltaExperiment pins that, after the catalog load, bytes
// written per Sync are O(delta): the Table II catalog is published into a
// disk-backed repository and synced, then single-image publishes each get
// their own Sync, then a forced compaction rewrites the full metadata
// snapshot — what every Sync cost before the WAL. Each single-image sync
// must append (never compact) and their mean must come in at least 5x
// smaller than that rewrite. The WAL compaction threshold is pinned out
// of reach (auto compaction mid-run would bill one delta for a full
// snapshot); the closing forced compaction exercises that path
// explicitly. Sync latency itself is expelload's publish_churn /
// diskstore.sync_ms.
func TestSyncDeltaExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("sync scenario skipped in -short mode")
	}
	const deltas = 3
	r := newTestRunner(t)
	dir := t.TempDir()
	sys := openDiskSystem(t, r, dir, vmirepo.OpenOptions{WALCompactBytes: 1 << 40}, core.Options{})

	tpls := catalog.Paper19()
	publishCatalog(t, r, tpls, sys)
	names := make([]string, 0, len(tpls)+deltas)
	for _, tpl := range tpls {
		names = append(names, tpl.Name)
	}
	// The bulk load's pending delta (every intermediate master version)
	// outweighs the database, so this first sync is expected to take the
	// oversized-delta compaction path — O(min(delta, repository)).
	first, err := sys.Sync()
	if err != nil {
		t.Fatalf("catalog sync: %v", err)
	}
	if !first.Compacted || first.MetaBytes == 0 {
		t.Fatalf("catalog sync did not compact the bulk-load delta: %+v", first)
	}

	var deltaBytes []int64
	for i, tpl := range catalog.IDEBuilds(deltas) {
		img, err := r.WL.Builder().Build(tpl)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Publish(img); err != nil {
			t.Fatalf("publish delta %s: %v", tpl.Name, err)
		}
		names = append(names, tpl.Name)
		st, err := sys.Sync()
		if err != nil {
			t.Fatalf("delta sync %d: %v", i+1, err)
		}
		if st.Compacted {
			t.Fatalf("delta sync %d compacted — a single-image delta must append, not rewrite (%+v)", i+1, st)
		}
		if st.MetaBytes == 0 || st.MetaOps == 0 {
			t.Fatalf("delta sync %d committed nothing (%+v)", i+1, st)
		}
		deltaBytes = append(deltaBytes, st.MetaBytes)
	}

	comp, err := sys.Compact()
	if err != nil {
		t.Fatalf("forced compaction: %v", err)
	}
	if !comp.Compacted || comp.MetaSnapshotBytes == 0 {
		t.Fatalf("forced compaction did not rewrite a snapshot (%+v)", comp)
	}
	var sum int64
	for i, b := range deltaBytes {
		if b >= comp.MetaSnapshotBytes {
			t.Fatalf("delta sync %d wrote %d bytes, not smaller than the %d-byte full rewrite", i+1, b, comp.MetaSnapshotBytes)
		}
		sum += b
	}
	if ratio := float64(comp.MetaSnapshotBytes) * deltas / float64(sum); ratio < 5 {
		t.Fatalf("single-image Sync wrote %d metadata bytes on average vs a %d-byte full rewrite (%.1fx < 5x): Sync is not O(delta)",
			sum/deltas, comp.MetaSnapshotBytes, ratio)
	}

	// Close (where a sticky store failure would surface) and reopen:
	// every image, catalog and deltas, must assemble from disk alone.
	if err := r.CloseAll(); err != nil {
		t.Fatalf("close: %v", err)
	}
	re := openDiskSystem(t, r, dir, vmirepo.OpenOptions{}, core.Options{})
	for _, name := range names {
		if _, _, err := re.Retrieve(name); err != nil {
			t.Fatalf("retrieve %s after reopen: %v", name, err)
		}
	}
}
