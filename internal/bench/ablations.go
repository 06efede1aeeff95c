package bench

import (
	"fmt"
	"time"

	"expelliarmus/internal/catalog"
	"expelliarmus/internal/chunker"
	"expelliarmus/internal/core"
	"expelliarmus/internal/pkgmeta"
	"expelliarmus/internal/pkgmgr"
	"expelliarmus/internal/semgraph"
	"expelliarmus/internal/similarity"
	"expelliarmus/internal/stores"
)

// AblationChunking (A1) compares block-level deduplication at several
// chunk sizes — fixed and Rabin content-defined — against file-level
// (Mirage) and semantic (Expelliarmus) schemes on the 19-image workload.
// It demonstrates two related-work observations: chunk-size selection
// decides the dedup factor (Jayaram et al.), and content-level dedup
// cannot reach the semantic scheme's footprint because it must keep every
// image's churn.
func (r *Runner) AblationChunking() (*Table, error) {
	exp, err := r.newExpel(core.Options{})
	if err != nil {
		return nil, err
	}
	ss := []stores.Store{
		stores.NewBlockDedup(r.Dev, chunker.NewFixed(catalog.ClusterSize)),
		stores.NewBlockDedup(r.Dev, chunker.NewFixed(4*catalog.ClusterSize)),
		stores.NewBlockDedup(r.Dev, chunker.NewFixed(16*catalog.ClusterSize)),
		stores.NewBlockDedup(r.Dev, chunker.NewRabin(1024)),
		stores.NewBlockDedup(r.Dev, chunker.NewRabin(4096)),
		stores.NewQcow2(r.Dev),
		stores.NewMirage(r.Dev),
		exp,
	}
	for _, t := range catalog.Paper19() {
		for _, s := range ss {
			img, err := r.WL.Image(t)
			if err != nil {
				return nil, err
			}
			if _, err := s.Publish(img); err != nil {
				return nil, fmt.Errorf("bench: %s publish %s: %w", s.Name(), t.Name, err)
			}
		}
	}
	tbl := &Table{
		Title:   "Ablation A1: block-level vs file-level vs semantic dedup, 19 VMIs",
		Columns: []string{"scheme", "repo size [GB]", "vs qcow2"},
	}
	var qcowGB float64
	for _, s := range ss {
		if s.Name() == "qcow2" {
			qcowGB = paperGB(s.SizeBytes())
		}
	}
	for _, s := range ss {
		gb := paperGB(s.SizeBytes())
		tbl.AddRow(s.Name(), fmt.Sprintf("%.2f", gb), fmt.Sprintf("%.1fx", qcowGB/gb))
	}
	return tbl, nil
}

// graphFor builds a VMI's semantic graph straight from the catalog
// (no disk build needed), for the master-graph ablation.
func graphFor(u *catalog.Universe, t catalog.Template) (*semgraph.Graph, error) {
	names, err := pkgmgr.Closure(u, append(u.EssentialNames(), t.Primaries...))
	if err != nil {
		return nil, err
	}
	var installed []pkgmeta.Package
	for _, n := range names {
		p, _ := u.Lookup(n)
		installed = append(installed, p)
	}
	return semgraph.Build(catalog.DefaultBase, installed, t.Primaries), nil
}

// AblationMasterGraph (A2) measures the real CPU cost of computing the
// semantic similarity of a new upload against N stored VMIs pairwise,
// versus a single comparison against their master graph — the
// justification for Sec. III-H ("reduce the similarity computation
// overhead ... with one single master graph similarity comparison").
// The "vertices" column is the deterministic form of the same argument:
// Σ|V(gᵢ)| the pairwise scan walks over |V(master)| the single
// comparison walks. The milliseconds are host wall clock, for reading
// only; tests assert the vertex ratio.
func (r *Runner) AblationMasterGraph(counts []int) (*Table, error) {
	u := catalog.NewUniverse()
	tpls := catalog.Paper19()
	graphs := make([]*semgraph.Graph, len(tpls))
	for i, t := range tpls {
		g, err := graphFor(u, t)
		if err != nil {
			return nil, err
		}
		graphs[i] = g
	}
	// The upload to compare: the last template.
	upload := graphs[len(graphs)-1]

	tbl := &Table{
		Title:   "Ablation A2: pairwise vs master-graph similarity computation",
		Columns: []string{"stored VMIs", "pairwise [ms]", "master [ms]", "speedup", "vertices pairwise/master"},
	}
	const reps = 10
	for _, n := range counts {
		if n > len(graphs) {
			n = len(graphs)
		}
		stored := graphs[:n]
		// Pairwise: compare against every stored VMI graph.
		start := time.Now()
		for rep := 0; rep < reps; rep++ {
			for _, g := range stored {
				similarity.SimG(upload, g)
			}
		}
		pairwise := time.Since(start) / reps

		// Master: one union graph, one comparison.
		mg := stored[0].Clone()
		pairVertices := stored[0].Len()
		for _, g := range stored[1:] {
			mg.Union(g)
			pairVertices += g.Len()
		}
		start = time.Now()
		for rep := 0; rep < reps; rep++ {
			similarity.SimG(upload, mg)
		}
		masterCost := time.Since(start) / reps

		speedup := float64(pairwise) / float64(masterCost)
		tbl.AddRow(fmt.Sprintf("%d", n),
			fmt.Sprintf("%.3f", float64(pairwise)/1e6),
			fmt.Sprintf("%.3f", float64(masterCost)/1e6),
			fmt.Sprintf("%.1fx", speedup),
			fmt.Sprintf("%d/%d = %.1fx", pairVertices, mg.Len(), float64(pairVertices)/float64(mg.Len())))
	}
	return tbl, nil
}

// AblationUploadOrder (A4) publishes the 19-image workload in Table II
// order and in reverse, comparing final repository size and total publish
// time. Packages and user data dedup identically either way, but the
// stored base image retains the churn of whichever image was decomposed
// first — so publishing ElasticStack (600 paper-MB churn) first costs a
// visibly larger base than publishing Mini (180 paper-MB) first. A
// production deployment would sysprep the base before storing it; the
// paper's system, like this reproduction, does not.
func (r *Runner) AblationUploadOrder() (*Table, error) {
	tpls := catalog.Paper19()
	reversed := make([]catalog.Template, len(tpls))
	for i, t := range tpls {
		reversed[len(tpls)-1-i] = t
	}
	tbl := &Table{
		Title:   "Ablation A4: upload order sensitivity, 19 VMIs",
		Columns: []string{"order", "repo size [GB]", "total publish [s]"},
	}
	for _, run := range []struct {
		label string
		tpls  []catalog.Template
	}{{"table-II", tpls}, {"reversed", reversed}} {
		s, err := r.newExpel(core.Options{})
		if err != nil {
			return nil, err
		}
		var total float64
		for _, t := range run.tpls {
			img, err := r.WL.Image(t)
			if err != nil {
				return nil, err
			}
			st, err := s.Publish(img)
			if err != nil {
				return nil, err
			}
			total += st.Seconds
		}
		tbl.AddRow(run.label, fmt.Sprintf("%.2f", paperGB(s.SizeBytes())),
			fmt.Sprintf("%.1f", total))
	}
	return tbl, nil
}

// AblationBaseSelection (A3) quantifies Algorithm 2: repository size and
// stored base-image count for the 19-image workload with base-image
// selection enabled versus disabled (every VMI keeps its own base).
func (r *Runner) AblationBaseSelection() (*Table, error) {
	withSel, err := r.newExpel(core.Options{})
	if err != nil {
		return nil, err
	}
	without, err := r.newExpel(core.Options{NoBaseSelection: true})
	if err != nil {
		return nil, err
	}
	for _, t := range catalog.Paper19() {
		for _, s := range []*stores.Expel{withSel, without} {
			img, err := r.WL.Image(t)
			if err != nil {
				return nil, err
			}
			if _, err := s.Publish(img); err != nil {
				return nil, err
			}
		}
	}
	tbl := &Table{
		Title:   "Ablation A3: base-image selection (Algorithm 2) on vs off, 19 VMIs",
		Columns: []string{"variant", "repo size [GB]", "base images"},
	}
	for _, s := range []*stores.Expel{withSel, without} {
		st := s.System().Repo().Stats()
		label := "selection-on"
		if s == without {
			label = "selection-off"
		}
		tbl.AddRow(label, fmt.Sprintf("%.2f", paperGB(st.TotalBytes)), fmt.Sprintf("%d", st.Bases))
	}
	return tbl, nil
}
