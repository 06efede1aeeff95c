package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricSpec is an end-to-end metric as BENCHMARK.json declares it: the
// bound is the share of the parent's median by which it may get worse.
type metricSpec struct {
	name, unit   string
	higherBetter bool
	bound        float64
}

// e2eSpecs mirrors BENCHMARK.json's end_to_end list (a test keeps the two
// equal). e2eResult.metrics reports them in this order.
var e2eSpecs = []metricSpec{
	{"op_p50_ms", "ms", false, 0.25},
	{"ops_per_s", "1/s", true, 0.25},
	{"alloc_mb_per_op", "MB", false, 0.08},
	{"stored_bytes_per_image_byte", "ratio", false, 0.05},
	{"setup_s", "s", false, 0.25},
}

// worseBy returns how much worse b is than a as a share of a (negative:
// better), in the metric's own direction.
func (s metricSpec) worseBy(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if s.higherBetter {
		return (a - b) / a
	}
	return (b - a) / a
}

type metricJSON struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples,omitempty"`
}

func toJSON(ms []metric) []metricJSON {
	out := make([]metricJSON, len(ms))
	for i, m := range ms {
		out[i] = metricJSON{Name: m.Name, Unit: m.Unit, Value: m.Value, Samples: m.N}
	}
	return out
}

// workloadReport is one workload's part of a saved result.
type workloadReport struct {
	Name         string       `json:"name"`
	Attempted    int          `json:"attempted"`
	Failed       int          `json:"failed"`
	EndToEnd     []metricJSON `json:"end_to_end"`
	Operations   []metricJSON `json:"operations"`
	PerLayer     []metricJSON `json:"per_layer,omitempty"`
	Ladder       []metricJSON `json:"ladder,omitempty"`
	BlockingPath string       `json:"blocking_path,omitempty"`
}

// benchFile is the BENCH_<n>.json format: one point of the trajectory.
// Wall-clock only; modeled simio seconds never appear here.
type benchFile struct {
	Command     string           `json:"command"`
	Environment environment      `json:"environment"`
	Seed        int64            `json:"seed"`
	Seconds     float64          `json:"seconds"`
	WarmSeconds float64          `json:"warm_seconds"`
	SetupCycles int              `json:"setup_cycles"`
	LoadClients int              `json:"load_clients"`
	Workloads   []workloadReport `json:"workloads"`
}

// runAll runs every workload end to end — and, with trace, its ladder and
// probes after it — prints the tables and optionally saves the result. A
// failed operation anywhere makes the run fail.
func runAll(cfg runConfig, trace bool, traceOut, jsonOut string) error {
	pool := &imagePool{scale: fullScale()}
	file := benchFile{
		Command:     "go run -C benchmarks ./expelload",
		Environment: currentEnvironment(),
		Seed:        cfg.seed, Seconds: cfg.window.Seconds(), WarmSeconds: cfg.warm.Seconds(),
		SetupCycles: cfg.setups, LoadClients: loadClients,
	}
	var spans []span
	failed := 0
	for _, w := range workloads {
		in, err := prepareInputs(w, cfg, pool)
		if err != nil {
			return err
		}
		res, err := runE2E(w, in, cfg)
		if err != nil {
			return err
		}
		rep := workloadReport{Name: w.name, Attempted: res.win.attempted, Failed: res.win.failed,
			EndToEnd: toJSON(res.metrics()), Operations: toJSON(res.win.detail())}
		printMetrics(os.Stdout, w.name, append(res.metrics(), res.win.detail()...))
		reportFailures(res.win)
		failed += res.win.failed
		if trace {
			tr, err := runTraced(w, in, cfg)
			if err != nil {
				return err
			}
			l0 := tr.rungs[rungHTTP]
			ladder := append(tr.detail(), metric{Name: "trace.l0_vs_untraced_run_ratio", Unit: "ratio",
				Value: ratio(l0.kinds[w.headline].p(50), res.win.kinds[w.headline].p(50))})
			rep.PerLayer, rep.Ladder, rep.BlockingPath = toJSON(tr.metrics()), toJSON(ladder), tr.blockingPath()
			printMetrics(os.Stdout, w.name+" (traced: per-layer)", tr.metrics())
			printMetrics(os.Stdout, w.name+" (traced: ladder detail)", ladder)
			fmt.Println(tr.blockingPath())
			reportFailures(l0)
			failed += l0.failed + tr.rungs[rungDisk].failed + tr.rungs[rungMem].failed
			spans = append(spans, tr.spans...)
		}
		file.Workloads = append(file.Workloads, rep)
	}
	if err := writeSpans(traceOut, spans); err != nil {
		return err
	}
	if jsonOut != "" {
		b, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

func reportFailures(win *windowStats) {
	for _, e := range win.errs {
		fmt.Fprintf(os.Stderr, "expelload: failed op: %v\n", e)
	}
}

// runCheck is the repeatability check: two full sets with the same seed,
// compared per (metric, workload) against the metric's bound, and a third
// with seed 2 to show the figures are not one schedule's artefact. A pair
// whose gap exceeds the bound is unresolved — the benchmark cannot tell a
// regression of that size from its own noise there.
func runCheck(cfg runConfig) error {
	pool := &imagePool{scale: fullScale()}
	set := func(seed int64) (map[string][]metric, error) {
		c := cfg
		c.seed = seed
		out := map[string][]metric{}
		for _, w := range workloads {
			in, err := prepareInputs(w, c, pool)
			if err != nil {
				return nil, err
			}
			res, err := runE2E(w, in, c)
			if err != nil {
				return nil, err
			}
			if res.win.failed > 0 {
				reportFailures(res.win)
				return nil, fmt.Errorf("%s seed %d: %d of %d operations failed", w.name, seed, res.win.failed, res.win.attempted)
			}
			out[w.name] = res.metrics()
		}
		return out, nil
	}
	var sets [3]map[string][]metric
	for i, seed := range []int64{cfg.seed, cfg.seed, 2} {
		fmt.Fprintf(os.Stderr, "expelload: check set %d of 3 (seed %d)\n", i+1, seed)
		var err error
		if sets[i], err = set(seed); err != nil {
			return err
		}
	}
	fmt.Printf("%-15s %-28s %12s %12s %8s %6s  %-10s %12s\n", "workload", "metric", "set A", "set B", "B worse", "bound", "verdict", "seed 2")
	unresolved := 0
	for _, w := range workloads {
		for i, spec := range e2eSpecs {
			a, b, c := sets[0][w.name][i].Value, sets[1][w.name][i].Value, sets[2][w.name][i].Value
			gap := spec.worseBy(a, b)
			verdict := "ok"
			if gap > spec.bound || -gap > spec.bound {
				verdict = "unresolved"
				unresolved++
			}
			fmt.Printf("%-15s %-28s %12.4f %12.4f %+7.2f%% %5.0f%%  %-10s %12.4f\n",
				w.name, spec.name, a, b, 100*gap, 100*spec.bound, verdict, c)
		}
	}
	if unresolved > 0 {
		return fmt.Errorf("%d (metric, workload) pairs differ between two sets of the same code by more than their bound", unresolved)
	}
	return nil
}
