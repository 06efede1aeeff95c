package core

import (
	"bytes"
	"fmt"
	"io"
	"sync/atomic"

	"expelliarmus/internal/retrievecache"
	"expelliarmus/internal/simio"
	"expelliarmus/internal/vdisk"
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
	// Flights is the queue-depth meter of the miss singleflight.
	Flights FlightStats
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
	st.Flights = s.flights.stats()
	return st, true
}

// serveEntry writes a verified cache entry's image to w verbatim — the
// entry is the serialized image, so serving it is one copy — and replays
// the cold retrieval's per-phase charges into a fresh meter, so the bytes
// and the report are identical to the miss that seeded the entry. The
// replay is of modeled seconds only: the meter's wall clock times nothing
// here, so a hit allocates no wall array. Hits,
// singleflight followers and the leader that built the entry all answer
// through it. A DigestWriter is then given the SHA-256 the entry took at
// construction, whether or not the entry was inserted.
func serveEntry(w io.Writer, rec vmirepo.VMIRecord, ent *retrievecache.Entry) (int64, *RetrieveReport, error) {
	rep := &RetrieveReport{
		Image:         rec.Name,
		Imported:      append([]string(nil), ent.Imported...),
		ImportedBytes: ent.ImportedBytes,
		Meter:         &simio.Meter{},
		base:          ent.Base,
		primaries:     append([]string(nil), rec.Primaries...),
	}
	for ph, d := range ent.Phases {
		rep.Meter.Charge(ph, d)
	}
	n, err := w.Write(ent.Image)
	if err != nil {
		return int64(n), nil, fmt.Errorf("core: retrieve %s: stream image: %w", rec.Name, err)
	}
	if dw, ok := w.(DigestWriter); ok {
		dw.SetDigest(ent.Digest().Sum)
	}
	return int64(n), rep, nil
}

// leadAssembly runs the assembly of a cache miss as the singleflight
// leader of key and writes the image to w; unview releases the view lock
// the caller resolved key under. The flight is always finished, and
// followers get the leader's image or its error.
//
// Before assembling, it re-checks the cache: between this caller's miss
// and its taking the flight lead, a previous flight for the same key may
// have finished and inserted — serving that entry instead of assembling
// again is what keeps the herd at one assembly per generation even across
// flight boundaries. The re-check is a Peek, so the caller's
// already-counted miss is not double-counted.
//
// The sources are opened before the view lock drops, so the image is the
// key's whatever commits while it assembles. It is cached only if the
// striped generation is still the key's once the image is ready: an entry
// inserted after it moved could never be looked up again. Such a
// stand-down is counted against the base's stripe. A cached image is
// serialized exactly once, into the entry, and the leader orders the rest:
// insert, finish the flight (followers get the entry), write the entry to
// w. An image that is not cached — a stand-down, or one the cache does not
// Admit, counted Rejected — streams straight to w, unless followers wait
// for it: then the leader leaves the flight first, so that no follower can
// join after the count is read, and serializes an entry for them alone.
//
// Either way the image's digest comes from the digest memo, by the recipe
// open resolved. An entry's SHA-256 is the memo's when the CRC-32C and
// length of the serialized image match the recipe's entry, and is hashed
// once and recorded otherwise; so a re-assembly after a publish on the
// base, which moved the key's generation but not the image's bytes, hashes
// nothing. A mismatch fails the retrieval and its followers, and nothing
// is cached.
func (s *System) leadAssembly(w io.Writer, key retrievecache.Key, rec vmirepo.VMIRecord, rep *RetrieveReport, fl *flight, unview func()) (int64, *RetrieveReport, error) {
	ent, err := s.cache.Peek(key)
	var src *sources
	if err != nil {
		err = fmt.Errorf("core: retrieve %s: %w", rec.Name, err)
	} else if ent == nil {
		src, err = s.open(rec.Name, rec.BaseID, rec.Primaries, rec.Name, rep)
	}
	unview()
	if err != nil {
		s.flights.finish(key, fl, nil, err)
		return 0, nil, err
	}
	if ent != nil {
		s.cctr.hits[vmirepo.StripeFor(rec.BaseID)].Add(1)
		s.flights.finish(key, fl, ent, nil)
		return serveEntry(w, rec, ent)
	}
	var buf *bytes.Buffer
	var tee *digestTee
	insert := false
	n, _, err := s.assemble(src, rep, func(disk *vdisk.Disk) io.Writer {
		size := disk.SerializedBytes()
		switch {
		case s.repo.GenerationFor(key.BaseID, key.UserData) != key.Generation:
			s.cctr.invalidations[vmirepo.StripeFor(key.BaseID)].Add(1)
		case !s.cache.Admit(key, size, rep.Imported): // counted Rejected
		default:
			insert = true
		}
		if !insert && s.flights.leave(key, fl) == 0 {
			return s.digestTo(w, src)
		}
		buf = bytes.NewBuffer(make([]byte, 0, size))
		tee = s.tee(buf, src)
		return tee
	})
	if err != nil {
		s.flights.finish(key, fl, nil, err)
		if buf != nil {
			n = 0 // the failure was serializing into the entry: w got nothing
		}
		return n, nil, err
	}
	if buf == nil { // the image went straight to w, with no follower waiting
		s.flights.finish(key, fl, nil, nil)
		return n, rep, nil
	}
	ent = retrievecache.NewEntryWithDigest(buf.Bytes(), tee.got, rep.base, rep.Imported, rep.ImportedBytes, rep.Meter.Snapshot())
	if insert {
		s.cache.Put(key, ent)
	}
	s.flights.finish(key, fl, ent, nil)
	if n, _, err = serveEntry(w, rec, ent); err != nil {
		return n, nil, err
	}
	return n, rep, nil // what serveEntry reports, with this assembly's wall-clock laps
}
