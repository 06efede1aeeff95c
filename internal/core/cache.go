package core

import (
	"bytes"
	"fmt"
	"io"
	"sync/atomic"

	"expelliarmus/internal/retrievecache"
	"expelliarmus/internal/simio"
	"expelliarmus/internal/vdisk"
	"expelliarmus/internal/vmi"
	"expelliarmus/internal/vmirepo"
)

// newCache builds the retrieval cache selected by the options (nil when
// disabled).
func newCache(opts Options) *retrievecache.Cache {
	if opts.CacheBytes <= 0 {
		return nil
	}
	return retrievecache.New(opts.CacheBytes)
}

// cacheCounters are the core-level counters layered on top of the
// cache's own: singleflight coalescing and the per-stripe breakdown of
// hits and stood-down inserts, indexed by the generation stripe of the
// retrieval's base image (vmirepo.StripeFor).
type cacheCounters struct {
	coalesced     atomic.Int64
	hits          [vmirepo.GenStripes]atomic.Int64
	invalidations [vmirepo.GenStripes]atomic.Int64
}

// CacheStats reports the retrieval cache's effectiveness: the cache's own
// counters (embedded) plus the core-level singleflight and generation-
// striping counters. It is the one declaration of these counters; the
// facade aliases it. Enabled is false, and every counter zero, when the
// system runs without a cache (Options.CacheBytes == 0).
type CacheStats struct {
	Enabled bool
	retrievecache.Stats
	// Coalesced counts misses served by waiting on a concurrent assembly
	// of the same key (the miss singleflight) instead of assembling the
	// image again themselves — under a retrieval storm on one cold image,
	// expect 1 miss that assembles and the rest split between Coalesced
	// and Hits.
	Coalesced int64
	// StripeHits and StripeInvalidations break cache hits and stood-down
	// inserts (the generation moved while the assembly ran, so the result
	// was not cached) down by the generation stripe of the retrieval's
	// base image. Under per-base striping, steady publish traffic on
	// unrelated bases shows up as invalidations on its own stripes while
	// the hot image's stripe keeps accumulating hits.
	StripeHits          []int64
	StripeInvalidations []int64
	// The queue-depth meter of the miss singleflight (see FlightStats):
	// assemblies started as a flight's leader, flights in the air right
	// now, retrievals queued behind them, and the deepest queue any single
	// flight has built up.
	FlightsLed      int64
	FlightsActive   int64
	FlightWaiters   int64
	FlightPeakDepth int64
}

// CacheStats returns the retrieval cache's counters; ok (and
// st.Enabled) is false when the system runs without a cache.
func (s *System) CacheStats() (st CacheStats, ok bool) {
	if s.cache == nil {
		return CacheStats{}, false
	}
	st.Enabled = true
	st.Stats = s.cache.Stats()
	st.Coalesced = s.cctr.coalesced.Load()
	st.StripeHits = make([]int64, vmirepo.GenStripes)
	st.StripeInvalidations = make([]int64, vmirepo.GenStripes)
	for i := 0; i < vmirepo.GenStripes; i++ {
		st.StripeHits[i] = s.cctr.hits[i].Load()
		st.StripeInvalidations[i] = s.cctr.invalidations[i].Load()
	}
	fl := s.flights.stats()
	st.FlightsLed, st.FlightsActive, st.FlightWaiters, st.FlightPeakDepth = fl.Led, fl.Active, fl.Waiting, fl.PeakDepth
	return st, true
}

// materializeCached turns a verified cache entry into a fresh image and
// report. The image is deserialized lazily over the cached bytes: the
// disk's copy-on-write layer means callers may still mutate the result
// without touching the cache, but a hit no longer duplicates the whole
// image up front — clusters are read from the (immutable) cached entry on
// demand, which is what keeps hit-path memory flat under the streaming
// retrieval. The report replays the cold retrieval's per-phase charges
// into a fresh meter, so a hit's report is byte-identical to the miss
// that seeded it. Singleflight followers go through the same path, so a
// coalesced miss is indistinguishable from a hit to the caller. The
// result has retrieve's shape; the pin is always nil — an image served
// from the cache holds nothing in the blob store.
func (s *System) materializeCached(name string, rec vmirepo.VMIRecord, ent *retrievecache.Entry) (*vmi.Image, *RetrieveReport, io.Closer, error) {
	disk, err := vdisk.DeserializeLazy(name, bytes.NewReader(ent.Image), int64(len(ent.Image)))
	if err != nil {
		// The bytes hashed correctly, so this is an insertion-side bug,
		// not bit rot — surface it rather than fall back silently.
		return nil, nil, nil, fmt.Errorf("core: retrieve %s: decode cached image: %w", name, err)
	}
	rep := &RetrieveReport{
		Image:         name,
		Imported:      append([]string(nil), ent.Imported...),
		ImportedBytes: ent.ImportedBytes,
		Meter:         &simio.Meter{},
	}
	for ph, d := range ent.Phases {
		rep.Meter.Charge(ph, d)
	}
	return &vmi.Image{
		Name:      name,
		Base:      ent.Base,
		Primaries: append([]string(nil), rec.Primaries...),
		Disk:      disk,
	}, rep, nil, nil
}

// cacheAssembled turns a completed assembly into a cache insert and — for
// a singleflight leader — a shareable entry for its followers, but only
// when the striped generation is still the one captured before the
// retrieval's first read. An unchanged generation proves no mutation
// relevant to this base or VMI committed anywhere inside the assembly
// window (the repository bumps the stripes both before and after every
// mutation), so the serialized bytes are a faithful image of the key's
// generation and safe to serve to any later lookup under it. If the check
// fails the assembly is simply not cached (and the stand-down is counted
// against the base's stripe) — correctness never depends on an insert
// happening.
//
// The second return is a deferred entry builder for an image too large
// for the cache: the skipped insert is counted as Rejected (so the stats
// see uncacheable images), but serializing it is still worth doing for
// singleflight followers, who each skip a full assembly — the leader
// hands the builder to flightGroup.finish, which invokes it only once
// the flight is sealed and the follower count is final. A solo caller
// ignores it, paying nothing.
func (s *System) cacheAssembled(key retrievecache.Key, gen uint64, img *vmi.Image, rep *RetrieveReport) (ent *retrievecache.Entry, build func() *retrievecache.Entry) {
	if s.repo.GenerationFor(key.BaseID, key.UserData) != gen {
		s.cctr.invalidations[vmirepo.StripeFor(key.BaseID)].Add(1)
		return nil, nil
	}
	newEntry := func() *retrievecache.Entry {
		// The assembled disk may be lazily backed by the blob store, so
		// serialization can fail (a store torn down mid-flight). A failed
		// build simply isn't cached — nil sends followers back to retry,
		// and correctness never depends on an insert happening.
		var buf bytes.Buffer
		buf.Grow(int(img.Disk.SerializedBytes()))
		if _, err := img.Disk.WriteTo(&buf); err != nil {
			return nil
		}
		return retrievecache.NewEntry(
			buf.Bytes(), img.Base, rep.Imported, rep.ImportedBytes, rep.Meter.Snapshot())
	}
	// AllocatedBytes is a lower bound on the serialized size (data
	// clusters without tables); when it alone exceeds the whole budget the
	// cache would reject the entry anyway, so defer the serialize + hash
	// to whoever actually has followers waiting for the bytes.
	if img.Disk.AllocatedBytes() > s.cache.MaxBytes() {
		s.cache.NoteRejected()
		return nil, newEntry
	}
	if ent = newEntry(); ent == nil {
		return nil, nil
	}
	s.cache.Put(key, ent)
	return ent, nil
}
