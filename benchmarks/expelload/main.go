// Command expelload is the repository's benchmark: it drives the real
// request path — client → loopback TCP → server.New(sys) → core → vmirepo
// → metawal + diskstore on a fresh disk store, the handler expelserverd
// serves — under five named workloads, verifies every byte it receives,
// and reports wall-clock end-to-end metrics, or with -trace the per-layer
// metrics of a three-rung layer ladder plus direct probes of the lower
// layers. See ../README.md.
//
// Usage:
//
//	expelload [-workload NAME] [-seed N] [-seconds S] [-trace] [-check]
//	          [-store-root DIR] [-trace-out FILE] [-json FILE]
//
// With -workload the last line of standard output is the one JSON object
// BENCHMARK.json's contract asks for; without it all five workloads run
// and a table is printed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"expelliarmus/internal/vmi"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// boolValueArgs rewrites "-trace 1" / "--trace 0" (how the benchmark driver
// passes the flag) into the "-trace=1" form a boolean flag parses, so
// "-trace" alone keeps working too.
func boolValueArgs(args []string, name string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-"+name || a == "--"+name) && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, a+"="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func run(args []string) int {
	fl := flag.NewFlagSet("expelload", flag.ContinueOnError)
	workloadName := fl.String("workload", "", "run one workload and end with the contract's JSON line (default: all five, as a table)")
	seed := fl.Int64("seed", 1, "seed of the op schedule, Zipf draws and variant content")
	seconds := fl.Float64("seconds", defaultSeconds, "timed window per workload; a traced run splits it over the ladder's rungs")
	trace := fl.Bool("trace", false, "traced run: per-layer metrics from the layer ladder and the probes")
	check := fl.Bool("check", false, "repeatability: two sets with the same seed and one with seed 2, compared against the bounds")
	storeRoot := fl.String("store-root", os.TempDir(), "directory the disk stores are created under (removed on exit)")
	traceOut := fl.String("trace-out", "", "write the traced run's spans to this file as JSON")
	jsonOut := fl.String("json", "", "write the full result (BENCH_<n>.json format) to this file")
	if err := fl.Parse(boolValueArgs(args, "trace")); err != nil {
		return 2
	}
	if fl.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "expelload: unexpected argument %q\n", fl.Arg(0))
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "expelload: -seconds must be positive")
		return 2
	}
	if err := os.MkdirAll(*storeRoot, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "expelload: %v\n", err)
		return 1
	}
	cfg := runConfig{
		seed:      *seed,
		warm:      warmUp,
		window:    time.Duration(*seconds * float64(time.Second)),
		setups:    setupCycles,
		storeRoot: *storeRoot,
	}
	var err error
	switch {
	case *check:
		err = runCheck(cfg)
	case *workloadName != "":
		err = runContract(*workloadName, cfg, *trace, *traceOut)
	default:
		err = runAll(cfg, *trace, *traceOut, *jsonOut)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "expelload: %v\n", err)
		return 1
	}
	return 0
}

const (
	// defaultSeconds is BENCHMARK.json's run_seconds. The issue's 25 s
	// windows do not fit the driver's total cap (4 + 22×5 runs in 3420 s);
	// all five windows were shrunk alike, and none dropped.
	defaultSeconds = 10
	warmUp         = time.Second
	setupCycles    = 3
)

// contractLine is the last line of standard output in -workload mode.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func contractJSON(ms []metric, attempted, failed int) (string, error) {
	line := contractLine{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]contractValue{}}
	for _, m := range ms {
		line.Metrics[m.Name] = contractValue{Value: m.Value, Unit: m.Unit}
	}
	b, err := json.Marshal(line)
	return string(b), err
}

// prepareInputs builds the workload's inputs, and the catalog pool first
// if the workload uses it and nothing has built it yet.
func prepareInputs(w *workload, cfg runConfig, pool *imagePool) (*inputs, error) {
	var catalog []*vmi.Image
	if !w.bulk {
		var err error
		if catalog, err = pool.get(); err != nil {
			return nil, err
		}
	}
	in := newInputs(cfg.seed, pool.scale, catalog)
	if err := w.generate(in, cfg.warm+cfg.window); err != nil {
		return nil, err
	}
	return in, nil
}

// imagePool builds the catalog images on first use; they are shared (never
// mutated) by every workload of the process.
type imagePool struct {
	scale   scale
	catalog []*vmi.Image
	err     error
	built   bool
}

func (p *imagePool) get() ([]*vmi.Image, error) {
	if !p.built {
		t0 := time.Now()
		p.catalog, p.err = buildCatalog(p.scale.templates)
		p.built = true
		fmt.Fprintf(os.Stderr, "expelload: built the %d catalog images in %.2fs\n", len(p.catalog), time.Since(t0).Seconds())
	}
	return p.catalog, p.err
}

// runContract runs one workload the way the benchmark driver asks and ends
// standard output with the contract's JSON line. A failed operation or a
// missing metric is reported in the line and as a non-zero exit.
func runContract(name string, cfg runConfig, trace bool, traceOut string) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	in, err := prepareInputs(w, cfg, &imagePool{scale: fullScale()})
	if err != nil {
		return err
	}
	var ms []metric
	var win *windowStats
	if trace {
		tr, err := runTraced(w, in, cfg)
		if err != nil {
			return err
		}
		if err := writeSpans(traceOut, tr.spans); err != nil {
			return err
		}
		ms, win = tr.metrics(), tr.rungs[rungHTTP]
		printMetrics(os.Stdout, w.name+" (traced)", ms)
		fmt.Println(tr.blockingPath())
	} else {
		res, err := runE2E(w, in, cfg)
		if err != nil {
			return err
		}
		ms, win = res.metrics(), res.win
		printMetrics(os.Stdout, w.name, append(ms, win.detail()...))
	}
	for _, e := range win.errs {
		fmt.Fprintf(os.Stderr, "expelload: failed op: %v\n", e)
	}
	if err := complete(ms); err != nil {
		return err
	}
	line, err := contractJSON(ms, win.attempted, win.failed)
	if err != nil {
		return err
	}
	fmt.Println(line)
	if win.failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", w.name, win.failed, win.attempted)
	}
	return nil
}

// complete rejects a result with a metric that is not a finite number.
func complete(ms []metric) error {
	for _, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not a number", m.Name)
		}
	}
	return nil
}

func printMetrics(f *os.File, title string, ms []metric) {
	fmt.Fprintf(f, "== %s\n", title)
	for _, m := range ms {
		if m.N > 0 {
			fmt.Fprintf(f, "  %-44s %14.4f %-6s (n=%d)\n", m.Name, m.Value, m.Unit, m.N)
		} else {
			fmt.Fprintf(f, "  %-44s %14.4f %s\n", m.Name, m.Value, m.Unit)
		}
	}
}

// environment is recorded beside every saved result.
type environment struct {
	NProc     int    `json:"nproc"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
}

func currentEnvironment() environment {
	return environment{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
}
