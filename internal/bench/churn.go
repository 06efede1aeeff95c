package bench

import (
	"crypto/sha256"
	"fmt"

	"expelliarmus/internal/catalog"
	"expelliarmus/internal/core"
	"expelliarmus/internal/vmirepo"
)

// ChurnRound is one publish/remove cycle's footprint measurement, taken
// after the removals' releases have been committed by Sync.
type ChurnRound struct {
	// LiveBytes is the deduplicated live repository size (identical on
	// both systems by construction).
	LiveBytes int64
	// DiskOn/DeadOn are the physical and reclaimable blob bytes of the
	// compaction-enabled repository; DiskOff/DeadOff of the disabled one.
	DiskOn, DeadOn   int64
	DiskOff, DeadOff int64
}

// ChurnResult reports the churn scenario: an identical publish/remove
// loop driven against two disk-backed repositories — one with dead-ratio
// compaction enabled (the default), one with the automatic trigger
// disabled — holding a fixed keeper set live throughout. The claim under
// test is the storage bound: with compaction on, steady-state disk usage
// stays within 2x the live bytes; with it off, the same workload's
// garbage accumulates without bound (every round leaks one churn set).
type ChurnResult struct {
	Keepers, Churners, Rounds int
	RoundStats                []ChurnRound
	// SegmentsCompacted/BytesReclaimed accumulate the enabled
	// repository's automatic compactions across the whole loop.
	SegmentsCompacted int
	BytesReclaimed    int64
	// Verified confirms every keeper retrieved byte-identically from
	// both repositories after the final round.
	Verified bool
}

// String renders the scenario as a table.
func (c *ChurnResult) String() string {
	tbl := &Table{
		Title: fmt.Sprintf("Churn: %d keepers live, %d images published+removed per round, %d rounds (disk backend)",
			c.Keepers, c.Churners, c.Rounds),
		Columns: []string{"round", "live[GB]", "compact-on disk[GB]", "ratio", "compact-off disk[GB]", "ratio"},
	}
	for i, r := range c.RoundStats {
		tbl.AddRow(fmt.Sprintf("%d", i+1),
			fmt.Sprintf("%.3f", paperGB(r.LiveBytes)),
			fmt.Sprintf("%.3f", paperGB(r.DiskOn)),
			fmt.Sprintf("%.2f", ratio(r.DiskOn, r.LiveBytes)),
			fmt.Sprintf("%.3f", paperGB(r.DiskOff)),
			fmt.Sprintf("%.2f", ratio(r.DiskOff, r.LiveBytes)))
	}
	verified := "keeper retrieval FAILED"
	if c.Verified {
		verified = "keepers byte-identical"
	}
	tbl.AddRow("compactions", fmt.Sprintf("%d segs", c.SegmentsCompacted),
		fmt.Sprintf("%.3f GB reclaimed", paperGB(c.BytesReclaimed)), "", "", verified)
	return tbl.String()
}

func ratio(disk, live int64) float64 {
	if live <= 0 {
		return 0
	}
	return float64(disk) / float64(live)
}

// churnBound is the steady-state gate: physical disk usage of the
// compaction-enabled repository must stay within this multiple of the
// live bytes once the loop has warmed up.
const churnBound = 2.0

// Churn runs the publish/remove churn loop for the given number of
// rounds (<=0 picks a default). It errors if the compaction-enabled
// repository ever exceeds the 2x-live disk bound after the first round,
// if the disabled repository fails to demonstrate the unbounded growth
// the bound protects against, or if any keeper image is not
// byte-identical across the two repositories at the end.
func (r *Runner) Churn(rounds int) (*ChurnResult, error) {
	if rounds <= 0 {
		rounds = 6
	}
	tpls := catalog.Paper19()
	if len(tpls) < 4 {
		return nil, fmt.Errorf("bench: churn needs at least 4 templates, have %d", len(tpls))
	}
	keepers := tpls[:4]
	// Each churn image carries user data unique to it — the one component
	// the repository must preserve verbatim (package content dedupes away
	// and system churn is discarded semantically), so every publish/remove
	// cycle strands real garbage on disk.
	const churnPerRound = 2
	churners := make([]catalog.Template, rounds*churnPerRound)
	for i := range churners {
		churners[i] = catalog.Template{
			Name:          fmt.Sprintf("churn-%03d", i+1),
			UserDataBytes: 512 << 20, // paper scale; ~512 KiB generated
			UserDataFiles: 256,
			SeriesSeed:    0xC4412100 + uint64(i),
			InstanceSeed:  0xC4412200 + uint64(i),
		}
	}

	// Small segments keep the compaction granularity fine enough that the
	// active (never-compacted) segment cannot dominate the bound.
	const segBytes = 256 << 10
	open := func(prefix string, deadRatio float64) (*core.System, error) {
		_, repo, err := r.NewDiskRepoOpts(prefix, vmirepo.OpenOptions{
			WALCompactBytes:      r.WALCompactBytes,
			BlobCompactDeadRatio: deadRatio,
			BlobMaxSegmentBytes:  segBytes,
		})
		if err != nil {
			return nil, err
		}
		return core.NewSystemWithRepo(repo, r.Dev, core.Options{}), nil
	}
	on, err := open("expelbench-churn-on-", 0) // default dead-ratio trigger
	if err != nil {
		return nil, err
	}
	onOpen := true
	defer func() {
		if onOpen {
			on.Close()
		}
	}()
	off, err := open("expelbench-churn-off-", -1) // automatic trigger disabled
	if err != nil {
		return nil, err
	}
	offOpen := true
	defer func() {
		if offOpen {
			off.Close()
		}
	}()
	both := map[string]*core.System{"on": on, "off": off}

	res := &ChurnResult{Keepers: len(keepers), Churners: churnPerRound, Rounds: rounds}
	for _, t := range keepers {
		for key, sys := range both {
			img, err := r.WL.Image(t)
			if err != nil {
				return nil, err
			}
			if _, err := sys.Publish(img); err != nil {
				return nil, fmt.Errorf("bench: churn publish keeper %s (%s): %w", t.Name, key, err)
			}
		}
	}

	for round := 1; round <= rounds; round++ {
		batch := churners[(round-1)*churnPerRound : round*churnPerRound]
		for _, t := range batch {
			img, err := r.WL.Builder().Build(t)
			if err != nil {
				return nil, err
			}
			for key, sys := range both {
				if _, err := sys.Publish(img.Clone()); err != nil {
					return nil, fmt.Errorf("bench: churn round %d publish %s (%s): %w", round, t.Name, key, err)
				}
			}
		}
		for _, t := range batch {
			for key, sys := range both {
				if err := sys.Remove(t.Name); err != nil {
					return nil, fmt.Errorf("bench: churn round %d remove %s (%s): %w", round, t.Name, key, err)
				}
			}
		}
		// One sync commits the round's appends and releases; on the
		// enabled system it also runs the dead-ratio compaction pass.
		for key, sys := range both {
			st, err := sys.Sync()
			if err != nil {
				return nil, fmt.Errorf("bench: churn round %d sync (%s): %w", round, key, err)
			}
			if key == "on" {
				res.SegmentsCompacted += st.SegmentsCompacted
				res.BytesReclaimed += st.BytesReclaimed
			}
		}

		onSt, offSt := on.Repo().Stats(), off.Repo().Stats()
		if onSt.TotalBytes != offSt.TotalBytes {
			return nil, fmt.Errorf("bench: churn round %d: live size diverged (%d vs %d)", round, onSt.TotalBytes, offSt.TotalBytes)
		}
		res.RoundStats = append(res.RoundStats, ChurnRound{
			LiveBytes: onSt.TotalBytes,
			DiskOn:    onSt.BlobDiskBytes, DeadOn: onSt.BlobDeadBytes,
			DiskOff: offSt.BlobDiskBytes, DeadOff: offSt.BlobDeadBytes,
		})
		// The first round may still be digesting the keeper bootstrap;
		// from the second on, the bound must hold.
		if round > 1 && ratio(onSt.BlobDiskBytes, onSt.TotalBytes) > churnBound {
			return res, fmt.Errorf("bench: churn round %d: compaction-on disk %d bytes exceeds %.1fx live %d bytes",
				round, onSt.BlobDiskBytes, churnBound, onSt.TotalBytes)
		}
	}

	// The disabled repository must show why the bound needs compaction:
	// its garbage grows with every round and ends both over the bound and
	// strictly above the enabled repository's footprint.
	last := res.RoundStats[len(res.RoundStats)-1]
	if ratio(last.DiskOff, last.LiveBytes) <= churnBound {
		return res, fmt.Errorf("bench: churn control failed: compaction-off disk %d bytes within %.1fx live %d bytes — workload generated no meaningful garbage",
			last.DiskOff, churnBound, last.LiveBytes)
	}
	if last.DiskOff <= last.DiskOn {
		return res, fmt.Errorf("bench: churn control failed: compaction-off disk %d not above compaction-on %d", last.DiskOff, last.DiskOn)
	}
	if res.SegmentsCompacted == 0 || res.BytesReclaimed == 0 {
		return res, fmt.Errorf("bench: churn loop triggered no compaction (segs %d, reclaimed %d)", res.SegmentsCompacted, res.BytesReclaimed)
	}

	// Fidelity: every keeper must retrieve byte-identically from both
	// repositories — compaction moved its records, never its bytes.
	for _, t := range keepers {
		sums := map[string][32]byte{}
		for key, sys := range both {
			h := sha256.New()
			if _, _, err := sys.RetrieveTo(h, t.Name); err != nil {
				return res, fmt.Errorf("bench: churn final retrieve %s (%s): %w", t.Name, key, err)
			}
			var sum [32]byte
			copy(sum[:], h.Sum(nil))
			sums[key] = sum
		}
		if sums["on"] != sums["off"] {
			return res, fmt.Errorf("bench: keeper %s diverged between compacted and uncompacted repositories", t.Name)
		}
	}
	res.Verified = true

	onOpen = false
	if err := on.Close(); err != nil {
		return res, fmt.Errorf("bench: churn close (on): %w", err)
	}
	offOpen = false
	if err := off.Close(); err != nil {
		return res, fmt.Errorf("bench: churn close (off): %w", err)
	}
	return res, nil
}
