package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// runConfig fixes how long a run measures. The same values are used on
// both sides of any comparison.
type runConfig struct {
	seed      int64
	warm      time.Duration // untimed lead-in of every loop
	window    time.Duration // timed window
	setups    int           // set-up cycles per run; setup_s is their median
	storeRoot string
}

// metric is one reported number.
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int // samples behind a timing; 0 when not a timing
}

// kindStats summarises one operation kind inside the timed window.
type kindStats struct {
	ms    []float64 // ascending latencies of verified ops
	bytes int64
}

func (k *kindStats) p(p float64) float64 { return percentile(k.ms, p) }

// windowStats is what the measured phase of one rung produced.
type windowStats struct {
	seconds float64
	kinds   [numKinds]kindStats
	// byImage[traced][kind+image] holds a ladder rung's latencies split
	// into its span-recording half and the other, for the paired overhead.
	byImage   [2]map[string][]float64
	attempted int
	failed    int
	ok        int
	bytes     int64
	alloc     uint64
	// opsPerS sums, over the closed-loop clients, a round's operations
	// divided by the client's median round duration; bytesPerOp is their
	// mean verified bytes per operation.
	opsPerS    float64
	bytesPerOp float64
	rounds     int
	lateMs     []float64
	counters   counters
	errs       []error
	spans      []span
}

// tracingOverhead compares the two halves of a traced rung: for every
// (operation, image) both halves ran, the ratio of the span-recording
// half's median latency to the other half's; the median of those ratios.
// Pairing by image keeps the image mix out of the comparison. Images seen
// by one half only (a variant published once) are compared pooled.
func (ws *windowStats) tracingOverhead() float64 {
	var ratios []float64
	var lone [2][]float64
	off, on := ws.byImage[0], ws.byImage[1]
	for key, a := range off {
		if b, ok := on[key]; ok {
			ratios = append(ratios, ratio(median(b), median(a)))
		} else {
			lone[0] = append(lone[0], a...)
		}
	}
	for key, b := range on {
		if _, ok := off[key]; !ok {
			lone[1] = append(lone[1], b...)
		}
	}
	if len(lone[0]) > 0 && len(lone[1]) > 0 {
		ratios = append(ratios, ratio(median(lone[1]), median(lone[0])))
	}
	return median(ratios)
}

// openLoop reports whether load goroutine c of w sends on a schedule of
// its own instead of waiting for replies.
func (w *workload) openLoop(c int) bool { return w.replicated && c == 0 }

// runPhase runs every load goroutine of rg for one phase and returns their
// recorders. It returns once the closed-loop clients have stopped at the
// phase's deadline (measured: at their next round boundary) and the
// open-loop one has noticed.
func runPhase(rg *rig, ph *phase, tracing bool) []*recorder {
	epoch := time.Now()
	ph.closedDone = make(chan struct{})
	recs := make([]*recorder, loadClients)
	var closed, open sync.WaitGroup
	for c := 0; c < loadClients; c++ {
		recs[c] = &recorder{epoch: epoch, rung: rungNames[rg.rung], tracing: tracing}
		wg := &closed
		if rg.w.openLoop(c) {
			wg = &open
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rg.w.client(rg, c, recs[c], ph)
		}(c)
	}
	closed.Wait()
	close(ph.closedDone)
	open.Wait()
	return recs
}

// runLoops runs the untimed warm-up, then the measured window, and
// returns the window's statistics. Between the two every client is idle,
// so the memory and counter readings bracket exactly the measured work.
func runLoops(rg *rig, cfg runConfig, tracing bool) *windowStats {
	runPhase(rg, &phase{deadline: time.Now().Add(cfg.warm)}, false)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := rg.snap()
	t0 := time.Now()
	recs := runPhase(rg, &phase{deadline: t0.Add(cfg.window), measured: true}, tracing)
	ws := &windowStats{seconds: time.Since(t0).Seconds(), counters: rg.snap().delta(c0),
		byImage: [2]map[string][]float64{{}, {}}}
	runtime.ReadMemStats(&m1)
	ws.alloc = m1.TotalAlloc - m0.TotalAlloc

	var loopOps, loopBytes int64
	for c, rec := range recs {
		ws.errs = append(ws.errs, rec.errs...)
		// A recorder numbers its spans from zero; interleave the clients'
		// numbers so IDs stay unique within the rung once merged.
		for _, sp := range rec.spans {
			sp.ID = sp.ID*loadClients + c
			if sp.Parent >= 0 {
				sp.Parent = sp.Parent*loadClients + c
			}
			ws.spans = append(ws.spans, sp)
		}
		for _, d := range rec.late {
			ws.lateMs = append(ws.lateMs, float64(d)/1e6)
		}
		var okOps, okBytes int64
		for _, s := range rec.samples {
			ws.attempted++
			if s.failed {
				ws.failed++
				continue
			}
			okOps++
			okBytes += s.bytes
			ms := float64(s.end-s.start) / 1e6
			ws.kinds[s.kind].ms = append(ws.kinds[s.kind].ms, ms)
			ws.kinds[s.kind].bytes += s.bytes
			if tracing {
				half := ws.byImage[0]
				if s.traced {
					half = ws.byImage[1]
				}
				key := kindNames[s.kind] + "/" + s.image
				half[key] = append(half[key], ms)
			}
		}
		ws.ok += int(okOps)
		ws.bytes += okBytes
		if !rg.w.openLoop(c) && len(rec.rounds) > 0 {
			perRound := float64(okOps) / float64(len(rec.rounds))
			ws.opsPerS += perRound / median(rec.rounds)
			ws.rounds += len(rec.rounds)
			loopOps += okOps
			loopBytes += okBytes
		}
	}
	ws.bytesPerOp = ratio(float64(loopBytes), float64(loopOps))
	for k := range ws.kinds {
		sort.Float64s(ws.kinds[k].ms)
	}
	return ws
}

// e2eResult is one untraced run of one workload.
type e2eResult struct {
	w         *workload
	setups    []float64 // seconds per set-up cycle
	win       *windowStats
	stored    int64 // the server's live (deduplicated) repository bytes after the final Sync
	published int64 // serialized bytes of the images retrievable then
}

// runE2E is the end-to-end run: cfg.setups set-up cycles (the last one's
// rig is measured), the timed loops, then the final Sync, the disk
// footprint and the content read-back.
func runE2E(w *workload, in *inputs, cfg runConfig) (*e2eResult, error) {
	res := &e2eResult{w: w}
	var rg *rig
	for i := 0; i < cfg.setups; i++ {
		if rg != nil {
			if err := rg.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if rg, err = bringUp(w, in, rungHTTP, cfg.storeRoot); err != nil {
			return nil, err
		}
		res.setups = append(res.setups, time.Since(t0).Seconds())
	}
	defer rg.close()
	res.win = runLoops(rg, cfg, false)
	if err := res.finish(rg); err != nil {
		return nil, err
	}
	return res, nil
}

// finish makes the end state durable, measures it and reads back the
// sampled variants; a read-back that fails is a failed operation.
func (res *e2eResult) finish(rg *rig) error {
	if err := rg.wt[0].sync(); err != nil {
		return fmt.Errorf("final sync: %w", err)
	}
	res.stored = rg.writer.sys.Repo().Stats().TotalBytes // what GET /v1/stats reports
	var check []*variant
	res.published, check = rg.w.live(rg)
	for _, v := range check {
		res.win.attempted++
		if err := readBack(rg.rt[0], v); err != nil {
			res.win.failed++
			res.win.errs = append(res.win.errs, err)
		}
	}
	return nil
}

// metrics lists the end-to-end metrics of BENCHMARK.json, in its order.
// Every workload reports every one: op_p50_ms is the workload's headline
// operation (see workload.headline), the rest are workload-agnostic.
func (res *e2eResult) metrics() []metric {
	win := res.win
	head := &win.kinds[res.w.headline]
	return []metric{
		{Name: "op_p50_ms", Unit: "ms", Value: head.p(50), N: len(head.ms)},
		{Name: "ops_per_s", Unit: "1/s", Value: win.opsPerS, N: win.rounds},
		{Name: "alloc_mb_per_op", Unit: "MB", Value: float64(win.alloc) / 1e6 / float64(max(win.ok, 1))},
		{Name: "stored_bytes_per_image_byte", Unit: "ratio", Value: float64(res.stored) / float64(max(res.published, 1))},
		{Name: "setup_s", Unit: "s", Value: median(res.setups), N: len(res.setups)},
	}
}

// detail lists the per-operation figures a workload exercises, under the
// names the README defines; absent operations are omitted, never zero.
func (win *windowStats) detail() []metric {
	var out []metric
	for k := opKind(0); k < numKinds; k++ {
		ks := &win.kinds[k]
		if len(ks.ms) == 0 {
			continue
		}
		name := kindNames[k]
		tail := tailPercentile(len(ks.ms))
		out = append(out, metric{Name: name + "_p50_ms", Unit: "ms", Value: ks.p(50), N: len(ks.ms)})
		if tail > 50 {
			out = append(out, metric{Name: fmt.Sprintf("%s_p%g_ms", name, tail), Unit: "ms", Value: ks.p(tail), N: len(ks.ms)})
		}
		out = append(out, metric{Name: name + "_per_s", Unit: "1/s", Value: float64(len(ks.ms)) / win.seconds})
		if ks.bytes > 0 {
			out = append(out, metric{Name: name + "_mb_per_s", Unit: "MB/s", Value: float64(ks.bytes) / 1e6 / win.seconds})
		}
	}
	// ops_per_s in bytes: the closed loops' round-based rate × their mean
	// verified bytes per operation.
	return append(out, metric{Name: "mb_per_s", Unit: "MB/s", Value: win.opsPerS * win.bytesPerOp / 1e6, N: win.rounds})
}
