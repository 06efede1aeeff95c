package bench

import (
	"fmt"

	"expelliarmus/internal/catalog"
	"expelliarmus/internal/core"
	"expelliarmus/internal/simio"
	"expelliarmus/internal/stores"
)

// fig3Stores returns the five schemes of Fig. 3, freshly initialised.
func (r *Runner) fig3Stores() ([]stores.Store, error) {
	exp, err := r.newExpel(core.Options{})
	if err != nil {
		return nil, err
	}
	return []stores.Store{
		stores.NewQcow2(r.Dev),
		stores.NewGzip(r.Dev),
		stores.NewMirage(r.Dev),
		stores.NewHemera(r.Dev),
		exp,
	}, nil
}

// repoGrowth publishes the templates into each store in order and records
// the cumulative repository size after each image.
func (r *Runner) repoGrowth(title string, tpls []catalog.Template) (*Figure, error) {
	ss, err := r.fig3Stores()
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		Title:  title,
		XLabel: "VMI",
		YLabel: "cumulative repository size (paper-equivalent GB)",
	}
	series := make([]Series, len(ss))
	for i, s := range ss {
		series[i] = Series{Label: s.Name()}
	}
	for _, t := range tpls {
		fig.X = append(fig.X, t.Name)
		for i, s := range ss {
			img, err := r.WL.Image(t)
			if err != nil {
				return nil, err
			}
			if _, err := s.Publish(img); err != nil {
				return nil, fmt.Errorf("bench: %s publish %s: %w", s.Name(), t.Name, err)
			}
			series[i].Y = append(series[i].Y, paperGB(s.SizeBytes()))
		}
	}
	fig.Series = series
	return fig, nil
}

// Fig3a regenerates Fig. 3a: repository growth over the 4 VMIs shared with
// the Mirage and Hemera studies (Mini, Base, Desktop, IDE).
func (r *Runner) Fig3a() (*Figure, error) {
	return r.repoGrowth("Fig. 3a: repository size growth, 4 VMIs", catalog.Paper4())
}

// Fig3b regenerates Fig. 3b: repository growth over the 19 Table II VMIs.
func (r *Runner) Fig3b() (*Figure, error) {
	return r.repoGrowth("Fig. 3b: repository size growth, 19 VMIs", catalog.Paper19())
}

// Fig3c regenerates Fig. 3c: repository growth over n successive IDE
// builds (the paper uses 40).
func (r *Runner) Fig3c(builds int) (*Figure, error) {
	return r.repoGrowth(
		fmt.Sprintf("Fig. 3c: repository size growth, %d successive IDE builds", builds),
		catalog.IDEBuilds(builds))
}

// publishTimes publishes the templates into each store in order and
// records per-image publish seconds.
func publishTimes(wl *Workload, tpls []catalog.Template, ss []stores.Store, title string) (*Figure, error) {
	fig := &Figure{Title: title, XLabel: "VMI", YLabel: "publish time (s)"}
	series := make([]Series, len(ss))
	for i, s := range ss {
		series[i] = Series{Label: s.Name()}
	}
	for _, t := range tpls {
		fig.X = append(fig.X, t.Name)
		for i, s := range ss {
			img, err := wl.Image(t)
			if err != nil {
				return nil, err
			}
			st, err := s.Publish(img)
			if err != nil {
				return nil, fmt.Errorf("bench: %s publish %s: %w", s.Name(), t.Name, err)
			}
			series[i].Y = append(series[i].Y, st.Seconds)
		}
	}
	fig.Series = series
	return fig, nil
}

// Fig4a regenerates Fig. 4a: publish times of the 4 shared VMIs for
// Expelliarmus, Mirage and Hemera.
func (r *Runner) Fig4a() (*Figure, error) {
	exp, err := r.newExpel(core.Options{})
	if err != nil {
		return nil, err
	}
	ss := []stores.Store{
		exp,
		stores.NewMirage(r.Dev),
		stores.NewHemera(r.Dev),
	}
	return publishTimes(r.WL, catalog.Paper4(), ss, "Fig. 4a: publish time, 4 VMIs")
}

// Fig4b regenerates Fig. 4b: publish times of the 19 VMIs for
// Expelliarmus, the "Semantic" no-dedup variant, Mirage and Hemera.
func (r *Runner) Fig4b() (*Figure, error) {
	exp, err := r.newExpel(core.Options{})
	if err != nil {
		return nil, err
	}
	sem, err := r.newExpel(core.Options{NoSemanticDedup: true})
	if err != nil {
		return nil, err
	}
	ss := []stores.Store{
		exp,
		&renamed{Store: sem, name: "semantic"},
		stores.NewMirage(r.Dev),
		stores.NewHemera(r.Dev),
	}
	return publishTimes(r.WL, catalog.Paper19(), ss, "Fig. 4b: publish time, 19 VMIs")
}

// renamed overrides a store's display name (for the "Semantic" variant).
type renamed struct {
	stores.Store
	name string
}

func (r *renamed) Name() string { return r.name }

// Fig5a regenerates Fig. 5a: the Expelliarmus retrieval time decomposition
// (base image copy, guestfs handle creation, VMI reset, package import)
// over the 19-image repository.
func (r *Runner) Fig5a() (*Figure, error) {
	exp, err := r.newExpel(core.Options{})
	if err != nil {
		return nil, err
	}
	tpls := catalog.Paper19()
	for _, t := range tpls {
		img, err := r.WL.Image(t)
		if err != nil {
			return nil, err
		}
		if _, err := exp.Publish(img); err != nil {
			return nil, err
		}
	}
	fig := &Figure{
		Title:  "Fig. 5a: Expelliarmus retrieval time decomposition, 19 VMIs",
		XLabel: "VMI",
		YLabel: "retrieval time (s)",
	}
	phases := []struct {
		label string
		phase simio.Phase
	}{
		{"base-image-copy", simio.PhaseCopy},
		{"handle-creation", simio.PhaseLaunch},
		{"vmi-reset", simio.PhaseReset},
		{"import", simio.PhaseImport},
	}
	series := make([]Series, len(phases)+1)
	for i, p := range phases {
		series[i] = Series{Label: p.label}
	}
	series[len(phases)] = Series{Label: "total"}
	for _, t := range tpls {
		fig.X = append(fig.X, t.Name)
		_, st, err := exp.Retrieve(t.Name)
		if err != nil {
			return nil, fmt.Errorf("bench: retrieve %s: %w", t.Name, err)
		}
		for i, p := range phases {
			series[i].Y = append(series[i].Y, st.Phases[string(p.phase)])
		}
		series[len(phases)].Y = append(series[len(phases)].Y, st.Seconds)
	}
	fig.Series = series
	return fig, nil
}

// Fig5b regenerates Fig. 5b: retrieval times over the 19-image repository
// for Mirage, Hemera and Expelliarmus.
func (r *Runner) Fig5b() (*Figure, error) {
	exp, err := r.newExpel(core.Options{})
	if err != nil {
		return nil, err
	}
	ss := []stores.Store{
		stores.NewMirage(r.Dev),
		stores.NewHemera(r.Dev),
		exp,
	}
	tpls := catalog.Paper19()
	for _, t := range tpls {
		for _, s := range ss {
			img, err := r.WL.Image(t)
			if err != nil {
				return nil, err
			}
			if _, err := s.Publish(img); err != nil {
				return nil, err
			}
		}
	}
	fig := &Figure{
		Title:  "Fig. 5b: retrieval time comparison, 19 VMIs",
		XLabel: "VMI",
		YLabel: "retrieval time (s)",
	}
	series := make([]Series, len(ss))
	for i, s := range ss {
		series[i] = Series{Label: s.Name()}
	}
	for _, t := range tpls {
		fig.X = append(fig.X, t.Name)
		for i, s := range ss {
			_, st, err := s.Retrieve(t.Name)
			if err != nil {
				return nil, fmt.Errorf("bench: %s retrieve %s: %w", s.Name(), t.Name, err)
			}
			series[i].Y = append(series[i].Y, st.Seconds)
		}
	}
	fig.Series = series
	return fig, nil
}

// TableII regenerates Table II: per-VMI characteristics under sequential
// upload into an initially empty Expelliarmus repository, with the paper's
// published values interleaved for comparison.
func (r *Runner) TableII() (*Table, error) {
	exp, err := r.newExpel(core.Options{})
	if err != nil {
		return nil, err
	}
	tbl := &Table{
		Title: "Table II: experimental VMI characteristics (measured vs paper)",
		Columns: []string{"#", "VMI", "mounted[GB]", "p:mounted", "files", "p:files",
			"SimG", "p:SimG", "publish[s]", "p:publish", "retrieve[s]", "p:retrieve"},
	}
	tpls := catalog.Paper19()
	type pub struct {
		mounted float64
		files   int
		simG    float64
		pubS    float64
	}
	results := make([]pub, len(tpls))
	for i, t := range tpls {
		img, err := r.WL.Image(t)
		if err != nil {
			return nil, err
		}
		st, err := img.Stats()
		if err != nil {
			return nil, err
		}
		ps, err := exp.Publish(img)
		if err != nil {
			return nil, err
		}
		results[i] = pub{
			mounted: paperGB(st.MountedBytes),
			files:   catalog.PaperFiles(st.Files),
			simG:    ps.Similarity,
			pubS:    ps.Seconds,
		}
	}
	for i, t := range tpls {
		_, rs, err := exp.Retrieve(t.Name)
		if err != nil {
			return nil, err
		}
		ref, _ := PaperTableIIRow(t.Name)
		tbl.AddRow(
			fmt.Sprintf("%d", i+1), t.Name,
			fmt.Sprintf("%.3f", results[i].mounted), fmt.Sprintf("%.3f", ref.MountedGB),
			fmt.Sprintf("%d", results[i].files), fmt.Sprintf("%d", ref.Files),
			fmt.Sprintf("%.2f", results[i].simG), fmt.Sprintf("%.2f", ref.SimG),
			fmt.Sprintf("%.1f", results[i].pubS), fmt.Sprintf("%.1f", ref.PublishS),
			fmt.Sprintf("%.1f", rs.Seconds), fmt.Sprintf("%.1f", ref.RetrieveS),
		)
	}
	return tbl, nil
}
