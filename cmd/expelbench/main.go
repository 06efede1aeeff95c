// Command expelbench regenerates the paper's evaluation — modeled numbers
// only — printing each experiment as an aligned text table with the
// paper's reference values where available:
//
//	table2          Table II: per-VMI characteristics, publish and retrieve times
//	fig3a fig3b     repository growth over 4 / 19 VMIs, five storage schemes
//	fig3c           repository growth over -ide-builds successive IDE builds
//	fig4a fig4b     publish times, 4 / 19 VMIs
//	fig5a fig5b     retrieval time decomposition / comparison, 19 VMIs
//	abl1 … abl4     ablations: chunking, master graph, base selection, upload order
//
// Usage:
//
//	expelbench [-exp all|NAME,NAME,...] [-ide-builds 40]
//
// Every experiment runs on the in-memory blob backend: the modeled
// numbers are identical on the disk store, with the retrieval cache on
// and under aggressive WAL compaction (internal/bench holds them to
// that). Wall-clock measurement is not this command's job: see
// benchmarks/ (expelload).
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"expelliarmus/internal/bench"
)

type runFunc func(r *bench.Runner, ideBuilds int) (fmt.Stringer, error)

// experiments is the registry, in print order.
var experiments = []struct {
	name string
	run  runFunc
}{
	{"table2", exp((*bench.Runner).TableII)},
	{"fig3a", exp((*bench.Runner).Fig3a)},
	{"fig3b", exp((*bench.Runner).Fig3b)},
	{"fig3c", func(r *bench.Runner, ideBuilds int) (fmt.Stringer, error) { return out(r.Fig3c(ideBuilds)) }},
	{"fig4a", exp((*bench.Runner).Fig4a)},
	{"fig4b", exp((*bench.Runner).Fig4b)},
	{"fig5a", exp((*bench.Runner).Fig5a)},
	{"fig5b", exp((*bench.Runner).Fig5b)},
	{"abl1", exp((*bench.Runner).AblationChunking)},
	{"abl2", exp(func(r *bench.Runner) (*bench.Table, error) { return r.AblationMasterGraph([]int{1, 5, 10, 19}) })},
	{"abl3", exp((*bench.Runner).AblationBaseSelection)},
	{"abl4", exp((*bench.Runner).AblationUploadOrder)},
}

// exp adapts a Runner method that takes no parameters to the registry's
// signature.
func exp[T fmt.Stringer](f func(*bench.Runner) (T, error)) runFunc {
	return func(r *bench.Runner, _ int) (fmt.Stringer, error) { return out(f(r)) }
}

// out turns a (*Table | *Figure, error) result into a Stringer without
// wrapping a nil pointer in a non-nil interface.
func out[T fmt.Stringer](v T, err error) (fmt.Stringer, error) {
	if err != nil {
		return nil, err
	}
	return v, nil
}

func main() {
	all := make([]string, len(experiments))
	for i, e := range experiments {
		all[i] = e.name
	}
	valid := strings.Join(all, ",")
	exps := flag.String("exp", "all", "comma-separated experiments to run, or 'all': "+valid)
	ideBuilds := flag.Int("ide-builds", 40, "number of successive IDE builds for fig3c")
	flag.Parse()

	chosen := all
	if *exps != "all" {
		chosen = strings.Split(*exps, ",")
	}
	selected := map[string]bool{}
	for _, name := range chosen {
		name = strings.TrimSpace(name)
		if !slices.Contains(all, name) {
			fail("unknown experiment %q (valid: all,%s)", name, valid)
		}
		selected[name] = true
	}

	r := bench.NewRunner()
	for _, e := range experiments {
		if !selected[e.name] {
			continue
		}
		start := time.Now()
		tbl, err := e.run(r, *ideBuilds)
		if err != nil {
			fail("%s: %v", e.name, err)
		}
		fmt.Printf("=== %s (generated in %.1fs wall clock) ===\n%s\n", e.name, time.Since(start).Seconds(), tbl)
	}

	if selected["fig3a"] || selected["fig3b"] || selected["fig3c"] {
		fmt.Println("paper reference endpoints (GB):")
		for _, name := range []string{"fig3a", "fig3b", "fig3c"} {
			if selected[name] {
				fmt.Printf("  %s: %v\n", name, bench.PaperFig3[name])
			}
		}
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "expelbench: "+format+"\n", args...)
	os.Exit(1)
}
