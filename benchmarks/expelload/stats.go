package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0..100) of an ascending slice by
// linear interpolation between closest ranks; 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	pos := p / 100 * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns v sorted ascending without touching v.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 50) }

// tailLadder lists the tail percentiles a report may quote, ascending.
var tailLadder = []float64{75, 90, 95, 99, 99.9}

// tailPercentile returns the highest percentile of tailLadder that still
// has at least ten samples beyond it among n samples, or 50 when even p75
// does not: a tail quoted from fewer than ten samples does not repeat.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, p := range tailLadder {
		// Tolerance: (100-99.9)/100 is not exactly 0.001 in binary.
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// subRand derives an independent deterministic stream from the run seed:
// the same (seed, stream) always yields the same draws.
func subRand(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)*7919 + 17))
}

// shuffled returns a seed-determined permutation of names.
func shuffled(names []string, r *rand.Rand) []string {
	out := append([]string(nil), names...)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// zipfCounts splits a round of n draws over k ranks in proportion to
// Zipf(s) weights 1/(rank+1)^s (largest remainders first), so every round
// carries exactly the Zipf mix instead of a noisy sample of it.
func zipfCounts(s float64, k, n int) []int {
	w := make([]float64, k)
	var sum float64
	for i := range w {
		w[i] = math.Pow(float64(i+1), -s)
		sum += w[i]
	}
	counts := make([]int, k)
	type rem struct {
		rank int
		frac float64
	}
	rems := make([]rem, k)
	left := n
	for i := range w {
		exact := float64(n) * w[i] / sum
		counts[i] = int(exact)
		left -= counts[i]
		rems[i] = rem{i, exact - float64(counts[i])}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for i := 0; i < left; i++ {
		counts[rems[i].rank]++
	}
	return counts
}

// zipfRoundsOf returns rounds×n ranks in [0, k): each round is the
// zipfCounts mix in its own seed-determined order. Rank 0 is the most
// popular; the ranking itself is fixed by the caller, so the seed moves
// the order of reads, never which images are hot.
func zipfRoundsOf(r *rand.Rand, s float64, k, n, rounds int) []int {
	var mix []int
	for rank, c := range zipfCounts(s, k, n) {
		for ; c > 0; c-- {
			mix = append(mix, rank)
		}
	}
	out := make([]int, 0, rounds*n)
	for i := 0; i < rounds; i++ {
		r.Shuffle(len(mix), func(a, b int) { mix[a], mix[b] = mix[b], mix[a] })
		out = append(out, mix...)
	}
	return out
}

// pacer is an open-loop schedule: operation i is due at start + i/rate no
// matter how long earlier operations took.
type pacer struct {
	start    time.Time
	interval time.Duration
}

func (p pacer) due(i int) time.Time { return p.start.Add(time.Duration(i) * p.interval) }

// wait sleeps until operation i is due and returns the due time and how
// late the generator is sending it (zero when it slept until due).
func (p pacer) wait(i int, now func() time.Time, sleep func(time.Duration)) (due time.Time, late time.Duration) {
	due = p.due(i)
	if d := due.Sub(now()); d > 0 {
		sleep(d)
		return due, 0
	}
	return due, now().Sub(due)
}

// ladderSelf splits an operation's end-to-end median into the three rungs'
// self times: L0 runs it over HTTP, L1 as direct core calls on the disk
// store, L2 the same on the in-memory store.
type ladderSelf struct {
	HTTP, Storage, Core float64
}

func selfTimes(l0, l1, l2 float64) ladderSelf {
	return ladderSelf{HTTP: l0 - l1, Storage: l1 - l2, Core: l2}
}

// shares returns each self time as a percentage of their sum (the L0
// median), so the three always add to 100.
func (s ladderSelf) shares() (http, storage, core float64) {
	total := s.HTTP + s.Storage + s.Core
	if total == 0 {
		return 0, 0, 0
	}
	return 100 * s.HTTP / total, 100 * s.Storage / total, 100 * s.Core / total
}
