package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// counters are read at the two edges of a timed window, from outside the
// layers: their public stats, /proc/self/io and the store directory.
type counters struct {
	hits, misses, evictions, invalidations int64 // retrievecache, via core.CacheStats
	syncCalls, syncPasses                  int64 // vmirepo.SyncCounters
	syscr, rchar, wchar                    int64 // /proc/self/io
	segsMade, segsPresent                  int64 // highest blob segment number; segment files on disk
	segsRetired                            int64 // delta only: segments compacted away
	diskBytes, deadBytes                   int64 // gauges: physical and reclaimable blob bytes
}

// snap reads the counters of the rig's nodes.
func (rg *rig) snap() counters {
	var c counters
	if st, ok := rg.readSys().CacheStats(); ok {
		c.hits, c.misses, c.evictions = st.Hits, st.Misses, st.Evictions
		for _, n := range st.StripeInvalidations {
			c.invalidations += n
		}
	}
	repo := rg.writer.sys.Repo()
	calls, passes := repo.SyncCounters()
	c.syncCalls, c.syncPasses = int64(calls), int64(passes)
	st := repo.Stats()
	c.diskBytes, c.deadBytes = st.BlobDiskBytes, st.BlobDeadBytes
	c.syscr, c.rchar, c.wchar = procIO()
	if rg.writer.dir != "" {
		c.segsMade, c.segsPresent = segmentFiles(filepath.Join(rg.writer.dir, "blobs"))
	}
	return c
}

// delta returns the change from a to c for the cumulative counters; the
// gauges keep c's (end-of-window) reading.
func (c counters) delta(a counters) counters {
	c.hits -= a.hits
	c.misses -= a.misses
	c.evictions -= a.evictions
	c.invalidations -= a.invalidations
	c.syncCalls -= a.syncCalls
	c.syncPasses -= a.syncPasses
	c.syscr -= a.syscr
	c.rchar -= a.rchar
	c.wchar -= a.wchar
	// Segments retired (compacted away) = segments made − growth in files.
	c.segsRetired = (c.segsMade - a.segsMade) - (c.segsPresent - a.segsPresent)
	return c
}

// procIO reads this process's cumulative read/write syscall accounting.
// Where /proc is absent the counters read zero.
func procIO() (syscr, rchar, wchar int64) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0, 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ": ")
		if !ok {
			continue
		}
		n, _ := strconv.ParseInt(val, 10, 64)
		switch key {
		case "syscr":
			syscr = n
		case "rchar":
			rchar = n
		case "wchar":
			wchar = n
		}
	}
	return syscr, rchar, wchar
}

// segmentFiles returns the highest segment number under a diskstore
// directory and how many segment files exist.
func segmentFiles(dir string) (highest, present int64) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0
	}
	for _, e := range ents {
		var n int64
		if _, err := fmt.Sscanf(e.Name(), "seg-%d.log", &n); err == nil {
			present++
			highest = max(highest, n)
		}
	}
	return highest, present
}

// tracedResult is one traced run of one workload: the three rungs of the
// ladder, their spans, and the probes.
type tracedResult struct {
	w      *workload
	rungs  [3]*windowStats
	spans  []span
	probes []metric
}

// runTraced runs the workload's schedule on each rung of the ladder — same
// seed, same client count, a third of the window each — then the probes:
// replica probes against the L0 writer, store probes on the L1 store,
// codec probes on the inputs.
func runTraced(w *workload, in *inputs, cfg runConfig) (*tracedResult, error) {
	tr := &tracedResult{w: w}
	per := cfg
	per.window = cfg.window / 3
	per.warm = cfg.warm / 2
	for rung := range tr.rungs {
		rg, err := bringUp(w, in, rung, cfg.storeRoot)
		if err != nil {
			return nil, err
		}
		win := runLoops(rg, per, true)
		tr.rungs[rung] = win
		tr.spans = append(tr.spans, win.spans...)
		var ms []metric
		switch rung {
		case rungHTTP:
			ms, err = replicaProbes(rg)
		case rungDisk:
			ms, err = storeProbes(rg)
		}
		tr.probes = append(tr.probes, ms...)
		if cerr := rg.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("%s probes (%s): %w", w.name, rungNames[rung], err)
		}
	}
	ms, err := codecProbes(in)
	if err != nil {
		return nil, err
	}
	tr.probes = append(tr.probes, ms...)
	return tr, nil
}

// self returns the headline operation's ladder split.
func (tr *tracedResult) self(k opKind) ladderSelf {
	return selfTimes(tr.rungs[rungHTTP].kinds[k].p(50), tr.rungs[rungDisk].kinds[k].p(50), tr.rungs[rungMem].kinds[k].p(50))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metrics lists the per-layer metrics of BENCHMARK.json. Every workload
// reports every one; a count a workload does not exercise reads 0.
func (tr *tracedResult) metrics() []metric {
	k := tr.w.headline
	l0, l1 := tr.rungs[rungHTTP], tr.rungs[rungDisk]
	s := tr.self(k)
	c0, c1 := l0.counters, l1.counters
	published := l1.kinds[opPublish].bytes
	ms := []metric{
		{Name: "client.op_p50_ms", Unit: "ms", Value: l0.kinds[k].p(50), N: len(l0.kinds[k].ms)},
		{Name: "http.op_self_ms", Unit: "ms", Value: s.HTTP},
		{Name: "storage.op_self_ms", Unit: "ms", Value: s.Storage},
		{Name: "core.op_self_ms", Unit: "ms", Value: s.Core},
		{Name: "trace.overhead_ratio", Unit: "ratio", Value: l0.tracingOverhead()},
		{Name: "retrievecache.hit_ratio", Unit: "ratio", Value: ratio(float64(c0.hits), float64(c0.hits+c0.misses))},
		{Name: "retrievecache.evictions", Unit: "count", Value: float64(c0.evictions)},
		{Name: "retrievecache.invalidations", Unit: "count", Value: float64(c0.invalidations)},
		{Name: "vmirepo.sync_coalesce_ratio", Unit: "ratio", Value: ratio(float64(c0.syncCalls), float64(c0.syncPasses))},
		{Name: "diskstore.read_syscalls_per_op", Unit: "count", Value: ratio(float64(c1.syscr), float64(l1.ok))},
		{Name: "diskstore.read_bytes_per_image_byte", Unit: "ratio", Value: ratio(float64(c1.rchar), float64(l1.bytes))},
		{Name: "diskstore.written_bytes_per_published_byte", Unit: "ratio", Value: ratio(float64(c1.wchar), float64(published))},
		{Name: "diskstore.dead_ratio", Unit: "ratio", Value: ratio(float64(c0.deadBytes), float64(c0.diskBytes))},
		{Name: "diskstore.compactions", Unit: "count", Value: float64(c0.segsRetired)},
		{Name: "loadgen.late_ratio", Unit: "ratio", Value: ratio(median(l0.lateMs), float64(publishInterval.Milliseconds()))},
	}
	return append(ms, tr.probes...)
}

// detail lists what each rung measured per operation, and the ladder split
// of every operation the workload exercises.
func (tr *tracedResult) detail() []metric {
	var out []metric
	for rung, win := range tr.rungs {
		for _, m := range win.detail() {
			m.Name = rungNames[rung] + "." + m.Name
			out = append(out, m)
		}
	}
	for k := opKind(0); k < numKinds; k++ {
		if len(tr.rungs[rungHTTP].kinds[k].ms) == 0 {
			continue
		}
		s := tr.self(k)
		out = append(out,
			metric{Name: "http." + kindNames[k] + "_self_ms", Unit: "ms", Value: s.HTTP},
			metric{Name: "storage." + kindNames[k] + "_self_ms", Unit: "ms", Value: s.Storage},
			metric{Name: "core." + kindNames[k] + "_self_ms", Unit: "ms", Value: s.Core})
	}
	out = append(out, spanMedians(tr.spans)...)
	return out
}

// spanMedians reports the median duration of every (rung, layer.func)
// child span: the calls the load generator made into each layer.
func spanMedians(spans []span) []metric {
	by := map[string][]float64{}
	var order []string
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		key := "span." + s.Rung + "." + s.Name + "_p50_ms"
		if _, ok := by[key]; !ok {
			order = append(order, key)
		}
		by[key] = append(by[key], float64(s.EndNs-s.StartNs)/1e6)
	}
	var out []metric
	for _, key := range order {
		out = append(out, metric{Name: key, Unit: "ms", Value: median(by[key]), N: len(by[key])})
	}
	return out
}

// blockingPath is the line that splits the end-to-end median over the
// layers that block it. The three shares sum to 100 %.
func (tr *tracedResult) blockingPath() string {
	k := tr.w.headline
	s := tr.self(k)
	h, st, c := s.shares()
	return fmt.Sprintf("%s %s: e2e p50 %.3f ms = http_self %.3f (%.1f%%) + storage_self %.3f (%.1f%%) + core_self %.3f (%.1f%%)",
		tr.w.name, kindNames[k], s.HTTP+s.Storage+s.Core, s.HTTP, h, s.Storage, st, s.Core, c)
}

// writeSpans writes the run's spans as a JSON array; "" writes nothing.
func writeSpans(path string, spans []span) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(spans)
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
