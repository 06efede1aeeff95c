package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"expelliarmus/internal/catalog"
)

// These tests assert behaviour — arithmetic, determinism, verification,
// metric names — never a stopwatch.

func TestPercentile(t *testing.T) {
	v := []float64{10, 20, 30, 40, 50}
	for _, tc := range []struct{ p, want float64 }{
		{0, 10}, {50, 30}, {100, 50}, {25, 20}, {90, 46}, {-5, 10}, {120, 50},
	} {
		if got := percentile(v, tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of unsorted input = %v, want 5", got)
	}
}

// The highest percentile quoted must have at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {19, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		got := tailPercentile(tc.n)
		if got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if got > 50 && float64(tc.n)*(100-got)/100 < 10-1e-9 {
			t.Errorf("tailPercentile(%d) = %v leaves fewer than ten samples beyond it", tc.n, got)
		}
	}
}

func TestSameSeedSameSchedule(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k"}
	perm := func(seed int64, stream int) []string { return shuffled(names, subRand(seed, stream)) }
	if !reflect.DeepEqual(perm(7, 0), perm(7, 0)) {
		t.Error("same seed and stream gave different orders")
	}
	if reflect.DeepEqual(perm(7, 0), perm(8, 0)) {
		t.Error("different seeds gave the same order")
	}
	if reflect.DeepEqual(perm(7, 0), perm(7, 1)) {
		t.Error("the two clients of one seed got the same order")
	}
	rounds := func(seed int64) []int { return zipfRoundsOf(subRand(seed, 100), zipfS, 19, zipfRound, 4) }
	if !reflect.DeepEqual(rounds(3), rounds(3)) {
		t.Error("same seed gave different Zipf rounds")
	}
	if reflect.DeepEqual(rounds(3), rounds(4)) {
		t.Error("different seeds gave the same Zipf rounds")
	}
	if !reflect.DeepEqual(catalog.GenContent(subRand(5, 10).Uint64(), 64), catalog.GenContent(subRand(5, 10).Uint64(), 64)) {
		t.Error("same seed gave different variant content")
	}
}

func TestZipfRounds(t *testing.T) {
	const k, n = 19, zipfRound
	counts := zipfCounts(zipfS, k, n)
	sum := 0
	for i, c := range counts {
		sum += c
		if c < 0 {
			t.Errorf("rank %d drawn %d times", i, c)
		}
		if i > 0 && c > counts[i-1] {
			t.Errorf("rank %d (%d draws) is more popular than rank %d (%d)", i, c, i-1, counts[i-1])
		}
	}
	if sum != n {
		t.Errorf("a round holds %d draws, want %d", sum, n)
	}
	if counts[0] < n/4 {
		t.Errorf("rank 0 drawn %d of %d times: no skew", counts[0], n)
	}
	seq := zipfRoundsOf(subRand(1, 100), zipfS, k, n, 3)
	if len(seq) != 3*n {
		t.Fatalf("got %d draws, want %d", len(seq), 3*n)
	}
	// Every round is the same mix, whatever its order.
	for r := 0; r < 3; r++ {
		got := make([]int, k)
		for _, rank := range seq[r*n : (r+1)*n] {
			if rank < 0 || rank >= k {
				t.Fatalf("draw %d outside [0, %d)", rank, k)
			}
			got[rank]++
		}
		if !reflect.DeepEqual(got, counts) {
			t.Errorf("round %d mix %v, want %v", r, got, counts)
		}
	}
}

// An open-loop op is due on the schedule however long earlier ops took, and
// its lateness is measured against that due time.
func TestPacerTimesFromDueTime(t *testing.T) {
	start := time.Unix(1000, 0)
	p := pacer{start: start, interval: 250 * time.Millisecond}
	if got := p.due(4); !got.Equal(start.Add(time.Second)) {
		t.Errorf("op 4 due at %v, want start+1s", got.Sub(start))
	}
	now := start
	clock := func() time.Time { return now }
	sleep := func(d time.Duration) { now = now.Add(d) }

	due, late := p.wait(1, clock, sleep) // on time: sleeps until due
	if !due.Equal(start.Add(250*time.Millisecond)) || late != 0 || !now.Equal(due) {
		t.Errorf("on-time op: due %v late %v now %v", due.Sub(start), late, now.Sub(start))
	}
	now = start.Add(900 * time.Millisecond) // a slow op 1 made the generator late for op 2
	due, late = p.wait(2, clock, sleep)
	if !due.Equal(start.Add(500*time.Millisecond)) || late != 400*time.Millisecond {
		t.Errorf("late op: due %v late %v, want due 500ms late 400ms", due.Sub(start), late)
	}
	// The next op's due time did not move because this one was late.
	if due, _ := p.wait(4, clock, sleep); !due.Equal(start.Add(time.Second)) {
		t.Errorf("op 4 due %v after a late op, want 1s", due.Sub(start))
	}
}

func TestLadderSelfTimes(t *testing.T) {
	s := selfTimes(10, 7, 2.5)
	if s.HTTP != 3 || s.Storage != 4.5 || s.Core != 2.5 {
		t.Errorf("selfTimes(10, 7, 2.5) = %+v", s)
	}
	h, st, c := s.shares()
	if math.Abs(h+st+c-100) > 1e-9 || math.Abs(h-30) > 1e-9 {
		t.Errorf("shares %v + %v + %v do not sum to 100", h, st, c)
	}
	// Noise can put a rung below the one under it; the shares still sum.
	h, st, c = selfTimes(5, 5.2, 5).shares()
	if math.Abs(h+st+c-100) > 1e-9 || h >= 0 {
		t.Errorf("negative self time: shares %v %v %v", h, st, c)
	}
	if h, st, c := (ladderSelf{}).shares(); h != 0 || st != 0 || c != 0 {
		t.Error("shares of an empty ladder are not zero")
	}
}

// A measured loop stops only between rounds; the warm-up at any op.
func TestTickStopsAtRoundBoundaries(t *testing.T) {
	past := time.Now().Add(-time.Second)
	warm := &recorder{}
	if warm.tick(&phase{deadline: past}, 5) {
		t.Error("warm-up loop ran past its deadline")
	}
	rec := &recorder{}
	ph := &phase{deadline: time.Now().Add(time.Hour), measured: true}
	for i := 0; i < 7; i++ {
		if !rec.tick(ph, 5) {
			t.Fatalf("tick %d refused before the deadline", i)
		}
	}
	ph.deadline = past
	for i := 7; i < 10; i++ { // mid-round: keeps going
		if !rec.tick(ph, 5) {
			t.Fatalf("tick %d stopped in the middle of a round", i)
		}
	}
	if rec.tick(ph, 5) {
		t.Error("loop started a new round after the deadline")
	}
	if len(rec.rounds) != 2 {
		t.Errorf("recorded %d complete rounds, want 2", len(rec.rounds))
	}
}

func TestTracingOverheadPairsByImage(t *testing.T) {
	ws := &windowStats{byImage: [2]map[string][]float64{
		{"retrieve/small": {10, 10}, "retrieve/big": {100}, "fresh/x": {50}},
		{"retrieve/small": {11}, "retrieve/big": {110, 110}, "fresh/y": {55}},
	}}
	// Every pair — and the pooled unpaired variants — is 10 % slower.
	if got := ws.tracingOverhead(); math.Abs(got-1.1) > 1e-9 {
		t.Errorf("overhead %v, want 1.1", got)
	}
}

func TestBoolValueArgs(t *testing.T) {
	got := boolValueArgs([]string{"--workload", "x", "--trace", "1", "--seed", "1"}, "trace")
	want := []string{"--workload", "x", "--trace=1", "--seed", "1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	got = boolValueArgs([]string{"-trace", "-seed", "1"}, "trace")
	if !reflect.DeepEqual(got, []string{"-trace", "-seed", "1"}) {
		t.Errorf("bare -trace rewritten: %v", got)
	}
}

func TestWorseBy(t *testing.T) {
	lower := metricSpec{name: "ms", bound: 0.1}
	higher := metricSpec{name: "rate", higherBetter: true, bound: 0.1}
	if got := lower.worseBy(100, 110); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("latency 100→110 worse by %v, want 0.1", got)
	}
	if got := higher.worseBy(100, 110); math.Abs(got+0.1) > 1e-9 {
		t.Errorf("rate 100→110 worse by %v, want -0.1", got)
	}
}

// smallScale keeps the smoke tests fast: three catalog images (the
// heaviest among them) and a 1 MiB bulk payload.
func smallScale() scale {
	var tpls []catalog.Template
	for _, t := range catalog.Paper19() {
		switch t.Name {
		case "Mini", "Redis", "Lapp":
			tpls = append(tpls, t)
		}
	}
	return scale{templates: tpls, bulkPayload: 1 << 20}
}

var smokePool = &imagePool{scale: smallScale()}

func smokeConfig(t *testing.T) runConfig {
	return runConfig{seed: 1, warm: 20 * time.Millisecond, window: 300 * time.Millisecond, setups: 1, storeRoot: t.TempDir()}
}

// benchmarkJSON is the part of ../../BENCHMARK.json the code must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// Every workload runs end to end with every operation verified and
// reports exactly BENCHMARK.json's end-to-end metrics, none of them zero.
func TestSmokeEveryWorkload(t *testing.T) {
	decl := loadBenchmarkJSON(t)
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the code has %d", len(decl.Workloads), len(workloads))
	}
	if len(decl.EndToEnd) != len(e2eSpecs) {
		t.Fatalf("BENCHMARK.json names %d end-to-end metrics, the code has %d", len(decl.EndToEnd), len(e2eSpecs))
	}
	for i, spec := range e2eSpecs {
		d := decl.EndToEnd[i]
		if d.Name != spec.name || d.Unit != spec.unit || d.Bound != spec.bound || (d.Better == "higher") != spec.higherBetter {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the code %+v", i, d, spec)
		}
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the code %q", i, decl.Workloads[i].Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			cfg := smokeConfig(t)
			in, err := prepareInputs(w, cfg, smokePool)
			if err != nil {
				t.Fatal(err)
			}
			res, err := runE2E(w, in, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.win.failed != 0 || res.win.attempted == 0 {
				t.Fatalf("%d of %d operations failed: %v", res.win.failed, res.win.attempted, res.win.errs)
			}
			if len(res.win.kinds[w.headline].ms) == 0 {
				t.Errorf("no %s operation completed", kindNames[w.headline])
			}
			ms := res.metrics()
			if err := complete(ms); err != nil {
				t.Error(err)
			}
			for i, m := range ms {
				if m.Name != e2eSpecs[i].name || m.Unit != e2eSpecs[i].unit {
					t.Errorf("metric %d is %s [%s], want %s [%s]", i, m.Name, m.Unit, e2eSpecs[i].name, e2eSpecs[i].unit)
				}
				if m.Value <= 0 {
					t.Errorf("%s = %v: an end-to-end metric must never be zero", m.Name, m.Value)
				}
			}
		})
	}
}

// A traced run reports exactly BENCHMARK.json's per-layer metrics and a
// blocking path whose shares sum to 100. replicated_mix exercises all four
// operations and the follower rungs; the probes are the same everywhere.
func TestSmokeTraced(t *testing.T) {
	decl := loadBenchmarkJSON(t)
	for _, name := range []string{"replicated_mix"} {
		t.Run(name, func(t *testing.T) {
			w, cfg := findWorkload(name), smokeConfig(t)
			cfg.window = 900 * time.Millisecond
			in, err := prepareInputs(w, cfg, smokePool)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := runTraced(w, in, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for rung, win := range tr.rungs {
				if win.failed != 0 || win.attempted == 0 {
					t.Errorf("%s: %d of %d operations failed: %v", rungNames[rung], win.failed, win.attempted, win.errs)
				}
			}
			ms := tr.metrics()
			if err := complete(ms); err != nil {
				t.Error(err)
			}
			if len(ms) != len(decl.PerLayer) {
				t.Fatalf("%d per-layer metrics, BENCHMARK.json names %d", len(ms), len(decl.PerLayer))
			}
			for i, m := range ms {
				if m.Name != decl.PerLayer[i].Name || m.Unit != decl.PerLayer[i].Unit {
					t.Errorf("per-layer metric %d is %s [%s], BENCHMARK.json has %s [%s]", i, m.Name, m.Unit, decl.PerLayer[i].Name, decl.PerLayer[i].Unit)
				}
			}
			h, st, c := tr.self(w.headline).shares()
			if math.Abs(h+st+c-100) > 1e-6 {
				t.Errorf("blocking-path shares sum to %v", h+st+c)
			}
			if len(tr.spans) == 0 {
				t.Error("no spans recorded")
			}
			seen := map[[2]any]bool{}
			for _, s := range tr.spans {
				if s.EndNs < s.StartNs || (s.Parent >= 0 && s.Parent >= s.ID) {
					t.Fatalf("malformed span %+v", s)
				}
				if key := [2]any{s.Rung, s.ID}; seen[key] {
					t.Fatalf("span ID %d used twice on %s", s.ID, s.Rung)
				} else {
					seen[key] = true
				}
			}
		})
	}
}

// Wrong bytes are a failed operation, not a latency sample.
func TestWrongBytesFailTheOperation(t *testing.T) {
	w, cfg := findWorkload("cold_catalog"), smokeConfig(t)
	in, err := prepareInputs(w, cfg, smokePool)
	if err != nil {
		t.Fatal(err)
	}
	rg, err := bringUp(w, in, rungHTTP, cfg.storeRoot)
	if err != nil {
		t.Fatal(err)
	}
	defer rg.close()
	rg.refs[in.names[0]].crc ^= 1 // the reference now disagrees with what the server sends
	win := runLoops(rg, cfg, false)
	if win.failed == 0 {
		t.Fatal("a retrieval that differs from its reference was not counted as failed")
	}
	if got := len(win.kinds[opRetrieve].ms); got != win.attempted-win.failed {
		t.Errorf("%d latency samples for %d verified ops: a failed op left a sample", got, win.attempted-win.failed)
	}
}
