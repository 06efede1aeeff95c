package bench

import (
	"fmt"
	"testing"

	"expelliarmus/internal/catalog"
	"expelliarmus/internal/core"
	"expelliarmus/internal/vmirepo"
)

// churnBound is the steady-state gate: physical disk usage of the
// compaction-enabled repository must stay within this multiple of the
// live bytes once the loop has warmed up.
const churnBound = 2.0

func ratio(disk, live int64) float64 {
	if live <= 0 {
		return 0
	}
	return float64(disk) / float64(live)
}

// TestChurnScenario pins the storage bound end to end: an identical
// publish/remove loop runs against two disk-backed repositories — one
// with dead-ratio blob compaction enabled (the default), one with the
// automatic trigger disabled — holding four keeper images live
// throughout. With compaction on, disk stays within churnBound x the
// live bytes from the second round on (the first may still be digesting
// the keeper bootstrap); with it off the same workload grows past the
// bound (every round leaks one churn set) and holds more garbage; the
// keepers stream byte-identically from both at the end — compaction
// moved their records, never their bytes. Compaction's cost in time is
// expelload's publish_churn workload (diskstore.compact_ms, dead_ratio).
func TestChurnScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("churn scenario skipped in -short mode")
	}
	const rounds, churnPerRound = 4, 2
	r := newTestRunner(t)
	// Small segments keep the compaction granularity fine enough that the
	// active (never-compacted) segment cannot dominate the bound.
	open := func(deadRatio float64) *core.System {
		return openDiskSystem(t, r, t.TempDir(), vmirepo.OpenOptions{
			WALCompactBytes:      r.walCompactBytes,
			BlobCompactDeadRatio: deadRatio,
			BlobMaxSegmentBytes:  256 << 10,
		}, core.Options{})
	}
	on, off := open(0), open(-1) // default dead-ratio trigger vs trigger disabled
	keepers := catalog.Paper19()[:4]
	publishCatalog(t, r, keepers, on, off)

	var segsCompacted int
	var reclaimed int64
	var onSt, offSt vmirepo.Stats
	for round := 1; round <= rounds; round++ {
		// Each churn image carries user data unique to it — the one
		// component the repository must preserve verbatim (package content
		// dedupes away and system churn is discarded semantically), so
		// every publish/remove cycle strands real garbage on disk.
		var batch []string
		for i := (round - 1) * churnPerRound; i < round*churnPerRound; i++ {
			img, err := r.WL.Builder().Build(catalog.Template{
				Name:          fmt.Sprintf("churn-%03d", i+1),
				UserDataBytes: 512 << 20, // paper scale; ~512 KiB generated
				UserDataFiles: 256,
				SeriesSeed:    0xC4412100 + uint64(i),
				InstanceSeed:  0xC4412200 + uint64(i),
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, sys := range []*core.System{on, off} {
				if _, err := sys.Publish(img.Clone()); err != nil {
					t.Fatalf("round %d publish %s: %v", round, img.Name, err)
				}
			}
			batch = append(batch, img.Name)
		}
		// One sync commits the round's appends and releases; on the
		// enabled system it also runs the dead-ratio compaction pass.
		for _, sys := range []*core.System{on, off} {
			for _, name := range batch {
				if err := sys.Remove(name); err != nil {
					t.Fatalf("round %d remove %s: %v", round, name, err)
				}
			}
			st, err := sys.Sync()
			if err != nil {
				t.Fatalf("round %d sync: %v", round, err)
			}
			if sys == on {
				segsCompacted += st.SegmentsCompacted
				reclaimed += st.BytesReclaimed
			}
		}

		onSt, offSt = on.Repo().Stats(), off.Repo().Stats()
		if onSt.TotalBytes != offSt.TotalBytes {
			t.Fatalf("round %d: live size diverged (%d vs %d)", round, onSt.TotalBytes, offSt.TotalBytes)
		}
		t.Logf("round %d: live %d, compact-on disk %d (%.2fx), compact-off disk %d (%.2fx)", round, onSt.TotalBytes,
			onSt.BlobDiskBytes, ratio(onSt.BlobDiskBytes, onSt.TotalBytes), offSt.BlobDiskBytes, ratio(offSt.BlobDiskBytes, offSt.TotalBytes))
		if round > 1 && ratio(onSt.BlobDiskBytes, onSt.TotalBytes) > churnBound {
			t.Fatalf("round %d: compaction-on disk %d bytes exceeds %.1fx live %d bytes",
				round, onSt.BlobDiskBytes, churnBound, onSt.TotalBytes)
		}
	}

	// The control must show why the bound needs compaction.
	if ratio(offSt.BlobDiskBytes, offSt.TotalBytes) <= churnBound {
		t.Fatalf("control failed: compaction-off disk %d bytes within %.1fx live %d bytes — workload generated no meaningful garbage",
			offSt.BlobDiskBytes, churnBound, offSt.TotalBytes)
	}
	if offSt.BlobDiskBytes <= onSt.BlobDiskBytes || offSt.BlobDeadBytes <= onSt.BlobDeadBytes {
		t.Fatalf("control failed: compaction-off repository not above compaction-on (disk %d vs %d, dead %d vs %d)",
			offSt.BlobDiskBytes, onSt.BlobDiskBytes, offSt.BlobDeadBytes, onSt.BlobDeadBytes)
	}
	if segsCompacted == 0 || reclaimed == 0 {
		t.Fatalf("churn loop triggered no compaction (segs %d, reclaimed %d)", segsCompacted, reclaimed)
	}
	for _, k := range keepers {
		_, onSum := streamSum(t, on, k.Name)
		if _, offSum := streamSum(t, off, k.Name); onSum != offSum {
			t.Fatalf("keeper %s diverged between compacted and uncompacted repositories", k.Name)
		}
	}
}
