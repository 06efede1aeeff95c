package bench

import (
	"fmt"
	"time"

	"expelliarmus/internal/catalog"
	"expelliarmus/internal/core"
	"expelliarmus/internal/vmirepo"
)

// PersistResult reports the persistence scenario: the Table II catalog
// published into a disk-backed repository, synced, grown by one more
// image, synced again, then closed and reopened. The interesting contrast
// is FullSync vs IncrementalSync — the second sync writes only the
// segments the extra image appended, not the whole store — and the reopen
// time, which is index-load plus log-tail replay rather than a full
// deserialisation.
type PersistResult struct {
	// Dir is the repository directory (left on disk for inspection).
	Dir string
	// Images is the initial catalog size; RepoBytes the on-heap-equivalent
	// repository footprint after it (paper scale applies to the GB figure
	// in String).
	Images    int
	RepoBytes int64
	// FullSync is the first durable sync: everything since open.
	FullSync vmirepo.SyncStats
	FullWall time.Duration
	// IncrementalSync is the sync after publishing one extra image.
	IncrementalSync vmirepo.SyncStats
	IncrementalWall time.Duration
	// ReopenWall is the time to reopen the repository from disk;
	// RetrievedAll confirms every VMI was assembled from the reopened
	// store.
	ReopenWall   time.Duration
	RetrievedAll bool
}

// String renders the scenario as a table.
func (p *PersistResult) String() string {
	tbl := &Table{
		Title:   fmt.Sprintf("Persistence: %d VMIs on the disk backend (%s)", p.Images, p.Dir),
		Columns: []string{"step", "wall[ms]", "segments", "segment bytes", "index+meta bytes"},
	}
	tbl.AddRow("full sync",
		fmt.Sprintf("%.1f", p.FullWall.Seconds()*1e3),
		fmt.Sprintf("%d", p.FullSync.Segments),
		fmt.Sprintf("%d", p.FullSync.SegmentBytes),
		fmt.Sprintf("%d", p.FullSync.IndexBytes+p.FullSync.MetaBytes))
	tbl.AddRow("incremental sync (+1 image)",
		fmt.Sprintf("%.1f", p.IncrementalWall.Seconds()*1e3),
		fmt.Sprintf("%d", p.IncrementalSync.Segments),
		fmt.Sprintf("%d", p.IncrementalSync.SegmentBytes),
		fmt.Sprintf("%d", p.IncrementalSync.IndexBytes+p.IncrementalSync.MetaBytes))
	verified := "retrieval FAILED"
	if p.RetrievedAll {
		verified = "all VMIs retrieved"
	}
	tbl.AddRow("reopen", fmt.Sprintf("%.1f", p.ReopenWall.Seconds()*1e3), "", "", verified)
	ratio := 0.0
	if p.FullSync.SegmentBytes > 0 {
		ratio = float64(p.IncrementalSync.SegmentBytes) / float64(p.FullSync.SegmentBytes)
	}
	tbl.AddRow("incremental/full bytes", fmt.Sprintf("%.3f", ratio), "", "", "")
	return tbl.String()
}

// Persistence runs the disk-backend scenario rooted under the runner's
// StoreRoot (or the OS temp dir).
func (r *Runner) Persistence() (*PersistResult, error) {
	dir, repo, err := r.NewDiskRepo("expelbench-persist-")
	if err != nil {
		return nil, err
	}
	sys := core.NewSystemWithRepo(repo, r.Dev, core.Options{})
	// Release the store (flock + handles) on every early error return;
	// the explicit Close below flips the flag.
	sysOpen := true
	defer func() {
		if sysOpen {
			sys.Close()
		}
	}()
	res := &PersistResult{Dir: dir}

	tpls := catalog.Paper19()
	res.Images = len(tpls)
	for _, t := range tpls {
		img, err := r.WL.Image(t)
		if err != nil {
			return nil, err
		}
		if _, err := sys.Publish(img); err != nil {
			return nil, fmt.Errorf("bench: persist publish %s: %w", t.Name, err)
		}
	}
	res.RepoBytes = sys.Repo().SizeBytes()

	start := time.Now()
	if res.FullSync, err = sys.Sync(); err != nil {
		return nil, fmt.Errorf("bench: full sync: %w", err)
	}
	res.FullWall = time.Since(start)

	// One more image: an IDE rebuild, the paper's Fig. 3c growth unit.
	more := catalog.IDEBuilds(1)
	img, err := r.WL.Builder().Build(more[0])
	if err != nil {
		return nil, err
	}
	if _, err := sys.Publish(img); err != nil {
		return nil, fmt.Errorf("bench: persist publish extra: %w", err)
	}
	start = time.Now()
	if res.IncrementalSync, err = sys.Sync(); err != nil {
		return nil, fmt.Errorf("bench: incremental sync: %w", err)
	}
	res.IncrementalWall = time.Since(start)
	sysOpen = false
	if err := sys.Close(); err != nil {
		return nil, err
	}

	start = time.Now()
	repo2, err := vmirepo.OpenAt(dir, r.Dev)
	if err != nil {
		return nil, fmt.Errorf("bench: reopen: %w", err)
	}
	res.ReopenWall = time.Since(start)
	sys2 := core.NewSystemWithRepo(repo2, r.Dev, core.Options{})
	res.RetrievedAll = true
	for _, t := range tpls {
		if _, _, err := sys2.Retrieve(t.Name); err != nil {
			res.RetrievedAll = false
			sys2.Close()
			return res, fmt.Errorf("bench: retrieve %s after reopen: %w", t.Name, err)
		}
	}
	// Close is where a sticky store failure would surface; do not drop it.
	if err := sys2.Close(); err != nil {
		return nil, fmt.Errorf("bench: close reopened store: %w", err)
	}
	return res, nil
}
