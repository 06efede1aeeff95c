package core

import (
	"sync"

	"expelliarmus/internal/retrievecache"
)

// flight is one in-progress assembly that concurrent cache misses of the
// same key coalesce behind: the first miss leads and runs Algorithm 3
// once; every later miss waits for it instead of assembling the same
// image again (the thundering-herd fix for retrieval storms on one
// popular image).
type flight struct {
	done chan struct{}
	// waiters counts followers. It is guarded by the group lock, so the
	// count leave returns is final.
	waiters int
	// ent and err are the leader's outcome, written strictly before done
	// is closed: the image of the key's generation, which followers write
	// exactly like a cache hit, or the error they return. Both are nil
	// only when no follower waits.
	ent *retrievecache.Entry
	err error
}

// FlightStats is the queue-depth meter of the miss singleflight. Led and
// PeakDepth are cumulative over the system's lifetime; Active and Waiting
// are gauges of the in-flight state at the instant of the snapshot.
type FlightStats struct {
	// Led counts flights that took off: assemblies started as the
	// singleflight leader of their key.
	Led int64
	// Active is the number of flights currently in the air.
	Active int64
	// Waiting is the number of retrievals currently queued behind an
	// active flight (followers blocked on a leader's outcome).
	Waiting int64
	// PeakDepth is the deepest follower queue any single flight has ever
	// built up — the high-water mark of per-key retrieval pressure.
	PeakDepth int64
}

// flightGroup coalesces concurrent misses per cache key. The zero value
// is ready to use.
type flightGroup struct {
	mu  sync.Mutex
	m   map[retrievecache.Key]*flight
	ctr FlightStats // maintained under mu
}

// join returns the flight for key and whether the caller leads it. A
// leader must call finish exactly once; followers wait on fl.done.
func (g *flightGroup) join(key retrievecache.Key) (fl *flight, leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if fl, ok := g.m[key]; ok {
		fl.waiters++
		g.ctr.Waiting++
		g.ctr.PeakDepth = max(g.ctr.PeakDepth, int64(fl.waiters))
		return fl, false
	}
	if g.m == nil {
		g.m = make(map[retrievecache.Key]*flight)
	}
	fl = &flight{done: make(chan struct{})}
	g.m[key] = fl
	g.ctr.Led++
	g.ctr.Active++
	return fl, true
}

// stats snapshots the queue-depth meter.
func (g *flightGroup) stats() FlightStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.ctr
}

// leave unregisters the flight and returns its final follower count:
// joins happen only under the group lock while key maps to fl, so once
// leave returns no retrieval can follow fl any more, and a miss arriving
// later starts a fresh flight. Leaving twice is harmless.
func (g *flightGroup) leave(key retrievecache.Key, fl *flight) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.m[key] == fl {
		delete(g.m, key)
		g.ctr.Active--
		// Settle the gauge for every follower this flight will release.
		g.ctr.Waiting -= int64(fl.waiters)
	}
	return fl.waiters
}

// finish unregisters the flight, unless the leader already left it, and
// hands the leader's outcome to its followers.
func (g *flightGroup) finish(key retrievecache.Key, fl *flight, ent *retrievecache.Entry, err error) {
	g.leave(key, fl)
	fl.ent, fl.err = ent, err
	close(fl.done)
}
