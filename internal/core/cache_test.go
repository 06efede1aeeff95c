package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"expelliarmus/internal/blobstore"
	"expelliarmus/internal/builder"
	"expelliarmus/internal/catalog"
	"expelliarmus/internal/fsx/fsxtest"
	"expelliarmus/internal/pkgmeta"
	"expelliarmus/internal/retrievecache"
	"expelliarmus/internal/vmirepo"
)

const testCacheBytes = 64 << 20

// retrieveTrace captures everything a retrieval reports, for equality
// checks between cold and warm paths.
type retrieveTrace struct {
	image    []byte
	imported []string
	bytes    int64
	seconds  float64
	phases   string
}

func traceRetrieve(t *testing.T, s *System, name string) retrieveTrace {
	t.Helper()
	img, rep, err := s.Retrieve(name)
	if err != nil {
		t.Fatalf("retrieve %s: %v", name, err)
	}
	return retrieveTrace{
		image:    img.Disk.Serialize(),
		imported: rep.Imported,
		bytes:    rep.ImportedBytes,
		seconds:  rep.Seconds(),
		phases:   rep.Meter.String(),
	}
}

// TestCacheHitMatchesColdRetrieval pins the transparency contract: a warm
// retrieval returns byte-identical image content and a byte-identical
// modeled report — the cache may only change wall-clock time.
func TestCacheHitMatchesColdRetrieval(t *testing.T) {
	s, b := newSystem(t, Options{CacheBytes: testCacheBytes})
	for _, n := range []string{"Mini", "Redis"} {
		if _, err := s.Publish(buildImage(t, b, n)); err != nil {
			t.Fatal(err)
		}
	}
	cold := traceRetrieve(t, s, "Redis")
	warm := traceRetrieve(t, s, "Redis")
	if !bytes.Equal(cold.image, warm.image) {
		t.Fatalf("warm image differs from cold: %d vs %d bytes", len(warm.image), len(cold.image))
	}
	if !reflect.DeepEqual(cold.imported, warm.imported) || cold.bytes != warm.bytes {
		t.Fatalf("warm import report differs: %v/%d vs %v/%d",
			warm.imported, warm.bytes, cold.imported, cold.bytes)
	}
	if cold.seconds != warm.seconds || cold.phases != warm.phases {
		t.Fatalf("warm modeled cost differs:\ncold %s\nwarm %s", cold.phases, warm.phases)
	}
	st, ok := s.CacheStats()
	if !ok {
		t.Fatal("cache enabled but CacheStats reports disabled")
	}
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Poisoned != 0 || st.Evictions != 0 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 put and no poisoning or eviction", st)
	}
}

// TestCacheInvalidatedByAnyMutation checks generation invalidation from
// the side the cache cannot see: after a publish of a different image on
// the same base (all Xenial catalog images decompose to one shared base,
// so its master graph — and generation stripe — moves) and after a
// removal that changes that master, a repeat retrieval must miss (fresh
// generation) yet still return identical results. A removal that leaves
// the master as it was (Mini has no primaries) writes nothing Redis's
// assembly reads, so Redis stays a hit. The striping counterpart — a
// publish on an unrelated base leaves entries warm — is
// TestCrossReleasePublishKeepsCacheWarm.
func TestCacheInvalidatedByAnyMutation(t *testing.T) {
	s, b := newSystem(t, Options{CacheBytes: testCacheBytes})
	for _, n := range []string{"Mini", "Redis"} {
		if _, err := s.Publish(buildImage(t, b, n)); err != nil {
			t.Fatal(err)
		}
	}
	first := traceRetrieve(t, s, "Redis") // miss + insert

	if _, err := s.Publish(buildImage(t, b, "PostgreSql")); err != nil {
		t.Fatal(err)
	}
	second := traceRetrieve(t, s, "Redis") // generation moved: miss again
	if !bytes.Equal(first.image, second.image) {
		t.Fatal("retrieval after unrelated publish returned different bytes")
	}

	if err := s.Remove("Mini"); err != nil {
		t.Fatal(err)
	}
	third := traceRetrieve(t, s, "Redis") // master unchanged: hit
	if !bytes.Equal(first.image, third.image) {
		t.Fatal("retrieval after removal returned different bytes")
	}
	if st, _ := s.CacheStats(); st.Misses != 2 || st.Hits != 1 {
		t.Fatalf("stats = %+v: a removal that left the master unchanged evicted Redis", st)
	}

	if err := s.Remove("PostgreSql"); err != nil {
		t.Fatal(err)
	}
	fourth := traceRetrieve(t, s, "Redis") // master rebuilt: miss again
	if !bytes.Equal(first.image, fourth.image) {
		t.Fatal("retrieval after master-changing removal returned different bytes")
	}
	if st, _ := s.CacheStats(); st.Misses != 3 || st.Hits != 1 {
		t.Fatalf("stats = %+v: the retrieval after a master-changing removal should have missed", st)
	}

	// With the repository quiet again, the cache warms back up.
	warm := traceRetrieve(t, s, "Redis")
	if !bytes.Equal(first.image, warm.image) {
		t.Fatal("warm retrieval differs")
	}
	if st, _ := s.CacheStats(); st.Hits != 2 {
		t.Fatalf("stats = %+v: quiet repeat should hit", st)
	}
}

// TestConcurrentRetrievesShareCache checks concurrent retrievals of the
// catalog share the cache: the second pass is all hits.
func TestConcurrentRetrievesShareCache(t *testing.T) {
	s, b := newSystem(t, Options{CacheBytes: testCacheBytes})
	names := []string{"Mini", "Redis", "PostgreSql"}
	for _, n := range names {
		if _, err := s.Publish(buildImage(t, b, n)); err != nil {
			t.Fatal(err)
		}
	}
	for pass := 0; pass < 2; pass++ {
		eachConcurrently(len(names), func(i int) {
			if _, _, err := s.Retrieve(names[i]); err != nil {
				t.Errorf("pass %d retrieve %s: %v", pass, names[i], err)
			}
		})
	}
	st, _ := s.CacheStats()
	if st.Misses != int64(len(names)) || st.Hits != int64(len(names)) {
		t.Fatalf("stats = %+v, want %d misses then %d hits", st, len(names), len(names))
	}
}

// TestPoisonedEntrySurfacesAsError corrupts a cached image in place and
// checks the next retrieval fails loudly instead of returning wrong
// bytes — and that the poisoned entry is evicted, so the retrieval after
// that reassembles cleanly.
func TestPoisonedEntrySurfacesAsError(t *testing.T) {
	s, b := newSystem(t, Options{CacheBytes: testCacheBytes})
	if _, err := s.Publish(buildImage(t, b, "Redis")); err != nil {
		t.Fatal(err)
	}
	clean := traceRetrieve(t, s, "Redis") // insert

	// Reach into the cache exactly as the retrieval path would and flip a
	// bit in the stored image — simulated bit rot.
	rec, err := s.repo.GetVMI("Redis", nil)
	if err != nil {
		t.Fatal(err)
	}
	key := retrievecache.NewKey(rec.BaseID, rec.Primaries, "Redis", s.repo.GenerationFor(rec.BaseID, "Redis"))
	ent, err := s.cache.Get(key)
	if err != nil || ent == nil {
		t.Fatalf("cached entry not found: %v", err)
	}
	ent.Image[len(ent.Image)/2] ^= 0x01

	if _, _, err := s.Retrieve("Redis"); !errors.Is(err, retrievecache.ErrPoisoned) {
		t.Fatalf("retrieve over poisoned entry returned %v, want ErrPoisoned", err)
	}
	// The entry was evicted: the next retrieval reassembles and matches.
	recovered := traceRetrieve(t, s, "Redis")
	if !bytes.Equal(clean.image, recovered.image) {
		t.Fatal("recovery after poison returned different bytes")
	}
	st, _ := s.CacheStats()
	if st.Poisoned != 1 {
		t.Fatalf("stats = %+v, want Poisoned = 1", st)
	}
}

// TestPackageOnlyInsertKeepsCacheWarm is the EnsurePackage exemption
// regression test: an insert that only adds a ref unreachable from any
// master graph cannot change assembly output, so it must not move any
// generation stripe — warm entries stay servable through the data-plane
// phase of a concurrent publish.
func TestPackageOnlyInsertKeepsCacheWarm(t *testing.T) {
	s, b := newSystem(t, Options{CacheBytes: testCacheBytes})
	if _, err := s.Publish(buildImage(t, b, "Redis")); err != nil {
		t.Fatal(err)
	}
	cold := traceRetrieve(t, s, "Redis") // miss + insert

	// A package-only insert, as the data-plane phase of a publish would
	// issue it: a fresh ref no master graph references.
	extra := pkgmeta.Package{Name: "storm-extra", Version: "9.9", Arch: "amd64", Distro: "ubuntu", InstalledSize: 1000}
	stored, err := s.repo.EnsurePackage(extra, []byte("payload"), nil)
	if err != nil || !stored {
		t.Fatalf("EnsurePackage = %v, %v", stored, err)
	}

	warm := traceRetrieve(t, s, "Redis")
	if !bytes.Equal(cold.image, warm.image) {
		t.Fatal("retrieval after package-only insert returned different bytes")
	}
	st, _ := s.CacheStats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v: the package-only insert flushed the warm entry", st)
	}
}

// TestOversizeImageCountsRejected pins the stats fix: an image whose
// lower-bound serialized size already exceeds the whole budget skips the
// insert, but the skip must be counted as Rejected so hit-rate math can
// see uncacheable images.
func TestOversizeImageCountsRejected(t *testing.T) {
	s, b := newSystem(t, Options{CacheBytes: 1024}) // far below any image
	if _, err := s.Publish(buildImage(t, b, "Mini")); err != nil {
		t.Fatal(err)
	}
	first := traceRetrieve(t, s, "Mini")
	second := traceRetrieve(t, s, "Mini")
	if !bytes.Equal(first.image, second.image) {
		t.Fatal("uncacheable retrievals differ")
	}
	st, _ := s.CacheStats()
	if st.Puts != 0 || st.Entries != 0 {
		t.Fatalf("stats = %+v: an oversize image was inserted", st)
	}
	if st.Rejected != 2 {
		t.Fatalf("stats = %+v, want Rejected = 2 (one per skipped insert)", st)
	}
	if st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 2 misses / 0 hits", st)
	}
}

// TestCacheAdmitsByEntryCost: admission charges what an insert would — the
// image plus the entry's key, imported names and bookkeeping — so a budget
// of exactly the image's size admits nothing. Each retrieval is counted
// Rejected without an attempted insert, and streams through the digest
// memo like any uncached retrieval.
func TestCacheAdmitsByEntryCost(t *testing.T) {
	probe, b := newSystem(t, Options{})
	if _, err := probe.Publish(buildImage(t, b, "Mini")); err != nil {
		t.Fatal(err)
	}
	size, _, err := probe.RetrieveTo(io.Discard, "Mini")
	if err != nil {
		t.Fatal(err)
	}
	s, b := newSystem(t, Options{CacheBytes: size})
	if _, err := s.Publish(buildImage(t, b, "Mini")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		var sink digestSink
		if _, _, err := s.RetrieveTo(&sink, "Mini"); err != nil {
			t.Fatal(err)
		}
		if int64(sink.Len()) != size {
			t.Fatalf("retrieval %d wrote %d bytes, want %d", i, sink.Len(), size)
		}
	}
	if st, _ := s.CacheStats(); st.Puts != 0 || st.Rejected != 2 {
		t.Fatalf("stats = %+v, want 0 puts and Rejected = 2", st)
	}
	if e := s.memo.get(recipeOf(t, s, "Mini")); e == nil || e.val.N != size {
		t.Fatal("an image the cache did not admit skipped the digest memo")
	}
}

// flightWaits is the frame a cache miss waits in for the flight it
// follows.
var flightWaits = []string{"core.(*System).RetrieveTo("}

// flightSweep parks a cache miss of Redis, which leads its key's flight, at
// each of its blob calls and writes to its caller, and runs a second
// retrieval of Redis while it waits, on a system whose cache holds cacheBytes. Both must return Redis's
// bytes. It returns the trials and, for each, the cache's counters.
func flightSweep(t *testing.T, cacheBytes int64) ([]fsxtest.Interleaving, []CacheStats) {
	t.Helper()
	redis := buildImage(t, builder.New(catalog.NewUniverse()), "Redis")
	ref := NewSystem(testDev, Options{})
	publishAll(t, ref, redis)
	states := map[string][]byte{"redis": retrieveBytes(t, ref, "Redis")}
	var systems []*System
	ins := fsxtest.PauseSweep(t, []string{"redis"}, nil, flightWaits, func(t *testing.T, p *fsxtest.Pause) (fsxtest.Party, fsxtest.Party) {
		s := NewSystemWithRepo(vmirepo.NewWithBackend(testDev, p.Blobs(blobstore.New())), testDev, Options{CacheBytes: cacheBytes})
		publishAll(t, s, redis)
		systems = append(systems, s)
		retrieve := func(w io.Writer, buf *bytes.Buffer) (string, error) {
			_, _, err := s.RetrieveTo(w, "Redis")
			return namedState(buf.Bytes(), err, states)
		}
		var lead, follow bytes.Buffer
		return func() (string, error) { return retrieve(p.Writer(&lead), &lead) },
			func() (string, error) { return retrieve(&follow, &follow) }
	})
	stats := make([]CacheStats, len(ins))
	for i := range ins {
		stats[i], _ = systems[i+1].CacheStats() // systems[0] is the dry run's
	}
	return ins, stats
}

// TestOversizeMissesCoalesce sweeps the singleflight of an image too large
// to cache. A miss that joins while the leader assembles follows it and is
// served the leader's image, so the key is assembled once. Once the
// leader has left the flight, to stream its image straight to its caller,
// a miss leads a flight of its own and assembles again; it must never
// follow a flight nobody will hand an image.
func TestOversizeMissesCoalesce(t *testing.T) {
	ins, stats := flightSweep(t, 1024)
	followed := 0
	for i, in := range ins {
		rejected, coalesced := int64(2), int64(0)
		if in.Waited != "" {
			followed++
			rejected, coalesced = 1, 1
		}
		if st := stats[i]; st.Rejected != rejected || st.Coalesced != coalesced || st.Puts != 0 || st.Hits != 0 {
			t.Errorf("call %d (%s %s): stats %+v, want %d rejected and %d coalesced", in.N, in.Call.Op, in.Call.File, st, rejected, coalesced)
		}
	}
	if followed == 0 || followed == len(ins) {
		t.Errorf("the second miss followed the leader at %d of its %d calls, want some but not all", followed, len(ins))
	}
}

// baseReads is a blob backend that counts every byte read, streamed or
// positioned, through the readers Open hands out for one blob.
type baseReads struct {
	blobstore.Backend
	id blobstore.ID
	n  atomic.Int64
}

type readAtCloser interface {
	io.ReadCloser
	io.ReaderAt
}

type countedReader struct {
	readAtCloser
	n *atomic.Int64
}

func (b *baseReads) Open(id blobstore.ID) (io.ReadCloser, int64, error) {
	rc, size, err := b.Backend.Open(id)
	if err != nil || id != b.id {
		return rc, size, err
	}
	return &countedReader{rc.(readAtCloser), &b.n}, size, nil
}

func (r *countedReader) Read(p []byte) (int, error) {
	n, err := r.readAtCloser.Read(p)
	r.n.Add(int64(n))
	return n, err
}

func (r *countedReader) ReadAt(p []byte, off int64) (int, error) {
	n, err := r.readAtCloser.ReadAt(p, off)
	r.n.Add(int64(n))
	return n, err
}

// TestCachedMissReadsBaseOnce: a cached miss serializes the assembled
// image once — into the cache entry, which is then written to the caller
// — so it reads exactly the base-blob bytes a retrieval without the cache
// reads.
func TestCachedMissReadsBaseOnce(t *testing.T) {
	baseBytesRead := func(opts Options) int64 {
		reads := &baseReads{Backend: blobstore.New()}
		s := NewSystemWithRepo(vmirepo.NewWithBackend(testDev, reads), testDev, opts)
		if _, err := s.Publish(buildImage(t, builder.New(catalog.NewUniverse()), "Redis")); err != nil {
			t.Fatal(err)
		}
		rec, err := s.repo.GetVMI("Redis", nil)
		if err != nil {
			t.Fatal(err)
		}
		binfo, err := s.repo.BaseInfo(rec.BaseID)
		if err != nil {
			t.Fatal(err)
		}
		reads.id = binfo.BlobID
		if _, _, err := s.RetrieveTo(io.Discard, "Redis"); err != nil {
			t.Fatal(err)
		}
		return reads.n.Load()
	}
	off := baseBytesRead(Options{})
	on := baseBytesRead(Options{CacheBytes: testCacheBytes})
	if on != off {
		t.Fatalf("a cached miss read %d base-blob bytes, a retrieval without the cache %d", on, off)
	}
}

// TestCacheHitIsOneCopy: a hit writes its entry to the caller as it is —
// no decode, no re-serialization — so a warm RetrieveTo into io.Discard
// allocates a small fraction of the image, and delivers the cold bytes.
func TestCacheHitIsOneCopy(t *testing.T) {
	s, b := newSystem(t, Options{CacheBytes: testCacheBytes})
	if _, err := s.Publish(buildImage(t, b, "Redis")); err != nil {
		t.Fatal(err)
	}
	var cold, warm bytes.Buffer
	for _, w := range []*bytes.Buffer{&cold, &warm} {
		if _, _, err := s.RetrieveTo(w, "Redis"); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(cold.Bytes(), warm.Bytes()) {
		t.Fatalf("warm image differs from cold: %d vs %d bytes", warm.Len(), cold.Len())
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, _, err := s.RetrieveTo(io.Discard, "Redis"); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	alloc := int64(m1.TotalAlloc - m0.TotalAlloc)
	if alloc*20 >= int64(cold.Len()) {
		t.Fatalf("a warm retrieval allocated %d bytes for a %d-byte image, want under 5%%", alloc, cold.Len())
	}
	t.Logf("warm retrieval of a %d-byte image allocated %d bytes", cold.Len(), alloc)
	if st, _ := s.CacheStats(); st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 miss then 2 hits", st)
	}
}

// TestConcurrentMissesCoalesce is the singleflight contract at the core
// level, swept: a miss that joins at any of the leader's blob calls follows
// its flight and is served the entry it inserts, and one that arrives
// while the leader writes that entry to its caller hits it, so the key is
// assembled once.
func TestConcurrentMissesCoalesce(t *testing.T) {
	ins, stats := flightSweep(t, testCacheBytes)
	for i, in := range ins {
		st := stats[i]
		if followed := in.Waited != ""; st.Puts != 1 || st.Rejected != 0 || st.Hits+st.Coalesced != 1 ||
			followed != (st.Coalesced == 1) || followed == (in.Call.Op == "Write") {
			t.Errorf("call %d (%s %s): followed %v, stats %+v: want a follower of the put at a blob call, a hit after", in.N, in.Call.Op, in.Call.File, followed, st)
		}
	}
}

// TestCrossReleasePublishKeepsCacheWarm is the striping contract at the
// core level: publishes of another release (a different base-attribute
// quadruple, hence a different base image and generation stripes) must
// leave the hot image's entry servable, and the per-stripe counters must
// attribute the hits to the hot base's stripe.
func TestCrossReleasePublishKeepsCacheWarm(t *testing.T) {
	s, b := newSystem(t, Options{CacheBytes: testCacheBytes})
	if _, err := s.Publish(buildImage(t, b, "Redis")); err != nil {
		t.Fatal(err)
	}
	rec, err := s.repo.GetVMI("Redis", nil)
	if err != nil {
		t.Fatal(err)
	}
	hotStripes := map[int]bool{
		vmirepo.StripeFor(rec.BaseID): true,
		vmirepo.StripeFor("Redis"):    true,
	}

	// Noise images from another release, renamed so their name stripes are
	// under our control; skip candidates that collide with the hot stripes
	// (collisions are striping's documented false-sharing mode, not what
	// this test pins).
	bionic := builder.New(catalog.NewUniverseFor(catalog.ReleaseBionic))
	tpl, _ := catalog.Find("Mini")
	var noise []string
	for i := 0; len(noise) < 2 && i < 100; i++ {
		name := fmt.Sprintf("noise-bionic-%d", i)
		if !hotStripes[vmirepo.StripeFor(name)] {
			noise = append(noise, name)
		}
	}

	cold := traceRetrieve(t, s, "Redis") // miss + insert

	publishNoise := func(name string) {
		ntpl := tpl
		ntpl.Name = name
		img, err := bionic.Build(ntpl)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Publish(img); err != nil {
			t.Fatalf("publish %s: %v", name, err)
		}
		nrec, err := s.repo.GetVMI(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		if hotStripes[vmirepo.StripeFor(nrec.BaseID)] {
			t.Skipf("noise base %s collides with a hot stripe; striping cannot be observed", nrec.BaseID)
		}
	}
	for _, n := range noise {
		publishNoise(n)
	}

	warm := traceRetrieve(t, s, "Redis")
	if !bytes.Equal(cold.image, warm.image) {
		t.Fatal("retrieval after cross-release publishes returned different bytes")
	}
	st, _ := s.CacheStats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v: cross-release publishes flushed the warm entry", st)
	}
	if got := st.StripeHits[vmirepo.StripeFor(rec.BaseID)]; got != 1 {
		t.Fatalf("StripeHits[hot] = %d, want 1", got)
	}
	var inval int64
	for _, v := range st.StripeInvalidations {
		inval += v
	}
	if inval != 0 {
		t.Fatalf("stats = %+v: quiesced publishes produced insert invalidations", st)
	}
}

// TestCacheDisabledByDefault: the zero options run without a cache and
// CacheStats says so.
func TestCacheDisabledByDefault(t *testing.T) {
	s, b := newSystem(t, Options{})
	if _, err := s.Publish(buildImage(t, b, "Mini")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Retrieve("Mini"); err != nil {
		t.Fatal(err)
	}
	if st, ok := s.CacheStats(); ok || st.Hits != 0 || st.Misses != 0 || st.StripeHits != nil {
		t.Fatalf("cache unexpectedly enabled: %+v", st)
	}
}
