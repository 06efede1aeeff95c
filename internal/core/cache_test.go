package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"expelliarmus/internal/builder"
	"expelliarmus/internal/catalog"
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
// removal, a repeat retrieval must miss (fresh generation) yet still
// return identical results. The striping counterpart — a publish on an
// unrelated base leaves entries warm — is TestCrossReleasePublishKeepsCacheWarm.
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
	third := traceRetrieve(t, s, "Redis") // removal moved it again
	if !bytes.Equal(first.image, third.image) {
		t.Fatal("retrieval after removal returned different bytes")
	}

	st, _ := s.CacheStats()
	if st.Misses != 3 || st.Hits != 0 {
		t.Fatalf("stats = %+v: every retrieval should have missed (generation moved)", st)
	}

	// With the repository quiet again, the cache warms back up.
	warm := traceRetrieve(t, s, "Redis")
	if !bytes.Equal(first.image, warm.image) {
		t.Fatal("warm retrieval differs")
	}
	if st, _ := s.CacheStats(); st.Hits != 1 {
		t.Fatalf("stats = %+v: quiet repeat should hit", st)
	}
}

// TestRetrieveAllUsesCache checks the batch path shares the cache.
func TestRetrieveAllUsesCache(t *testing.T) {
	s, b := newSystem(t, Options{CacheBytes: testCacheBytes, Parallelism: 4})
	names := []string{"Mini", "Redis", "PostgreSql"}
	for _, n := range names {
		if _, err := s.Publish(buildImage(t, b, n)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.RetrieveAll(names); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.RetrieveAll(names); err != nil {
		t.Fatal(err)
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

// TestConcurrentMissesCoalesce is the singleflight contract at the core
// level: 32 concurrent misses of one cold key run exactly one assembly;
// everyone gets byte-identical images and reports.
func TestConcurrentMissesCoalesce(t *testing.T) {
	s, b := newSystem(t, Options{CacheBytes: testCacheBytes})
	if _, err := s.Publish(buildImage(t, b, "Redis")); err != nil {
		t.Fatal(err)
	}
	ref := traceRetrieve(t, s, "Redis") // reference bytes
	// Move the hot generation (a publish on the shared base) so the key is
	// cold again, then quiesce before the storm.
	if _, err := s.Publish(buildImage(t, b, "Mini")); err != nil {
		t.Fatal(err)
	}
	before, _ := s.CacheStats()

	const clients = 32
	var wg sync.WaitGroup
	var mu sync.Mutex
	var failures []string
	seconds := make([]float64, clients)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			img, rep, err := s.Retrieve("Redis")
			if err != nil {
				mu.Lock()
				failures = append(failures, fmt.Sprintf("worker %d: %v", w, err))
				mu.Unlock()
				return
			}
			seconds[w] = rep.Seconds()
			// The Mini publish grew the shared master graph, so modeled
			// seconds legitimately differ from ref — but the image bytes
			// must not, and every worker must agree with every other.
			if !bytes.Equal(img.Disk.Serialize(), ref.image) {
				mu.Lock()
				failures = append(failures, fmt.Sprintf("worker %d: image bytes differ from reference", w))
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if len(failures) > 0 {
		t.Fatal(failures[0])
	}
	for w := 1; w < clients; w++ {
		if seconds[w] != seconds[0] {
			t.Fatalf("worker %d modeled %.9fs, worker 0 %.9fs — coalesced reports diverge", w, seconds[w], seconds[0])
		}
	}
	after, _ := s.CacheStats()
	assemblies := (after.Puts - before.Puts) + (after.Rejected - before.Rejected)
	for i := range after.StripeInvalidations {
		assemblies += after.StripeInvalidations[i] - before.StripeInvalidations[i]
	}
	if assemblies != 1 {
		t.Fatalf("%d assemblies for %d concurrent misses, want exactly 1 (stats %+v)", assemblies, clients, after)
	}
	served := (after.Hits - before.Hits) + after.Coalesced - before.Coalesced
	if served != clients-1 {
		t.Fatalf("hits+coalesced = %d, want %d (stats %+v)", served, clients-1, after)
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
