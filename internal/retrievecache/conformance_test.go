package retrievecache_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"expelliarmus/internal/pkgmeta"
	"expelliarmus/internal/retrievecache"
	"expelliarmus/internal/simio"
)

// TestConformance pins the cache's contract through its exported surface:
// exact fill/evict ordering, hit byte-identity, verification and stats
// accounting. Run it under -race; several subtests exercise concurrent
// access.
func TestConformance(t *testing.T) {
	t.Run("HitByteIdentity", testHitByteIdentity)
	t.Run("MissThenHit", testMissThenHit)
	t.Run("KeyNormalisation", testKeyNormalisation)
	t.Run("GenerationsAreDistinctKeys", testGenerationKeys)
	t.Run("StripedGenerationIsolation", testStripedGenerationIsolation)
	t.Run("FillEvictOrdering", testFillEvictOrdering)
	t.Run("GetRefreshesRecency", testGetRefreshesRecency)
	t.Run("ReplaceSameKey", testReplaceSameKey)
	t.Run("OversizedRejected", testOversizedRejected)
	t.Run("StatsAccounting", testStatsAccounting)
	t.Run("PoisonDetected", testPoisonDetected)
	t.Run("Remove", testRemove)
	t.Run("ConcurrentMixed", testConcurrentMixed)
}

// keyOf builds a distinct, deterministic key for index i.
func keyOf(i int) retrievecache.Key {
	return retrievecache.NewKey(
		fmt.Sprintf("base-%04d", i),
		[]string{"pkg-a", fmt.Sprintf("pkg-%d", i)},
		fmt.Sprintf("vmi-%d", i),
		uint64(i%3),
	)
}

// entryOf builds a deterministic entry whose image is `size` bytes.
func entryOf(i, size int) *retrievecache.Entry {
	img := bytes.Repeat([]byte{byte(i)}, size)
	return retrievecache.NewEntry(
		img,
		pkgmeta.BaseAttrs{Type: "server", Distro: "ubuntu", Version: "18.04", Arch: "amd64"},
		[]string{fmt.Sprintf("pkg-%d", i), "pkg-a"},
		int64(size),
		map[simio.Phase]time.Duration{
			simio.PhaseCopy:   time.Duration(i+1) * time.Second,
			simio.PhaseImport: time.Duration(i+1) * time.Millisecond,
		},
	)
}

func testHitByteIdentity(t *testing.T) {
	c := retrievecache.New(1 << 20)
	want := entryOf(7, 1024)
	// Keep an independent copy: the cache owns the bytes it was handed.
	wantImg := append([]byte(nil), want.Image...)
	if !c.Put(keyOf(7), want) {
		t.Fatal("Put rejected a fitting entry")
	}
	got, err := c.Get(keyOf(7))
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if got == nil {
		t.Fatal("miss for a resident key")
	}
	if !bytes.Equal(got.Image, wantImg) {
		t.Fatal("hit returned different image bytes than were inserted")
	}
	if !reflect.DeepEqual(got.Imported, []string{"pkg-7", "pkg-a"}) {
		t.Fatalf("hit lost the imported list: %v", got.Imported)
	}
	if got.ImportedBytes != 1024 {
		t.Fatalf("hit lost ImportedBytes: %d", got.ImportedBytes)
	}
	if got.Phases[simio.PhaseCopy] != 8*time.Second {
		t.Fatalf("hit lost the phase decomposition: %v", got.Phases)
	}
	// Repeated hits stay byte-identical.
	again, err := c.Get(keyOf(7))
	if err != nil || again == nil || !bytes.Equal(again.Image, wantImg) {
		t.Fatalf("second hit differs: %v", err)
	}
}

func testMissThenHit(t *testing.T) {
	c := retrievecache.New(1 << 20)
	if e, err := c.Get(keyOf(1)); err != nil || e != nil {
		t.Fatalf("empty cache returned %v, %v", e, err)
	}
	c.Put(keyOf(1), entryOf(1, 64))
	if e, err := c.Get(keyOf(1)); err != nil || e == nil {
		t.Fatalf("hit after put returned %v, %v", e, err)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 1 put", st)
	}
}

func testKeyNormalisation(t *testing.T) {
	c := retrievecache.New(1 << 20)
	k1 := retrievecache.NewKey("base", []string{"redis", "apache2", "nginx"}, "vmi", 4)
	k2 := retrievecache.NewKey("base", []string{"nginx", "redis", "apache2"}, "vmi", 4)
	if k1 != k2 {
		t.Fatalf("primary order changed the key: %+v vs %+v", k1, k2)
	}
	c.Put(k1, entryOf(1, 64))
	if e, err := c.Get(k2); err != nil || e == nil {
		t.Fatal("permuted primary set missed")
	}
	// Differing user-data sources must not share an entry.
	k3 := retrievecache.NewKey("base", []string{"redis", "apache2", "nginx"}, "other-vmi", 4)
	if e, err := c.Get(k3); err != nil || e != nil {
		t.Fatal("different user-data source hit the same entry")
	}
}

func testGenerationKeys(t *testing.T) {
	c := retrievecache.New(1 << 20)
	old := retrievecache.NewKey("base", []string{"redis"}, "vmi", 10)
	c.Put(old, entryOf(1, 64))
	// A repository mutation moves lookups to a fresh generation: the old
	// entry must be unreachable there.
	cur := retrievecache.NewKey("base", []string{"redis"}, "vmi", 11)
	if e, err := c.Get(cur); err != nil || e != nil {
		t.Fatal("lookup at a newer generation hit a stale entry")
	}
}

// testStripedGenerationIsolation pins the cache-side half of the striped
// invalidation contract: generations are per-key, so a mutation that
// moves one base's generation (its lookups shift to a fresh key and
// miss) must leave another base's entry reachable at its own unchanged
// generation — the cache itself never couples keys.
func testStripedGenerationIsolation(t *testing.T) {
	c := retrievecache.New(1 << 20)
	hot := retrievecache.NewKey("base-hot", []string{"redis"}, "vmi-hot", 7)
	other := retrievecache.NewKey("base-other", []string{"nginx"}, "vmi-other", 3)
	c.Put(hot, entryOf(1, 512))
	c.Put(other, entryOf(2, 512))

	// A mutation on base-other moves only its generation: its old entry
	// becomes unreachable there...
	otherNext := retrievecache.NewKey("base-other", []string{"nginx"}, "vmi-other", 4)
	if e, err := c.Get(otherNext); err != nil || e != nil {
		t.Fatal("lookup at base-other's fresh generation hit its stale entry")
	}
	c.Put(otherNext, entryOf(3, 512))

	// ...while the hot base's entry, whose generation did not move, stays
	// servable through any amount of other-base churn.
	if e, err := c.Get(hot); err != nil || e == nil {
		t.Fatal("other-base generation churn made the hot entry unreachable")
	}
	if e, err := c.Get(otherNext); err != nil || e == nil {
		t.Fatal("fresh-generation entry not served")
	}
}

// fitN returns a byte budget that holds exactly n entries of the given
// image size, probing the implementation's own cost accounting so the
// suite does not hard-code an overhead constant.
func fitN(n, size int) int64 {
	probe := retrievecache.New(1 << 30)
	probe.Put(keyOf(0), entryOf(0, size))
	one := probe.Stats().Bytes
	// Entry costs vary by a few bytes with the decimal width of the index;
	// pad by half an entry so exactly n comfortably fit and n+1 never does.
	return one*int64(n) + one/2
}

func testFillEvictOrdering(t *testing.T) {
	c := retrievecache.New(fitN(2, 4096))
	c.Put(keyOf(1), entryOf(1, 4096))
	c.Put(keyOf(2), entryOf(2, 4096))
	if c.Len() != 2 {
		t.Fatalf("2 entries should fit, have %d", c.Len())
	}
	c.Put(keyOf(3), entryOf(3, 4096)) // evicts 1 (least recently used)
	if c.Len() != 2 {
		t.Fatalf("budget holds 2, have %d", c.Len())
	}
	if e, err := c.Get(keyOf(1)); err != nil || e != nil {
		t.Fatal("oldest entry survived eviction")
	}
	for _, i := range []int{2, 3} {
		if e, err := c.Get(keyOf(i)); err != nil || e == nil {
			t.Fatalf("entry %d evicted out of LRU order", i)
		}
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

func testGetRefreshesRecency(t *testing.T) {
	c := retrievecache.New(fitN(2, 4096))
	c.Put(keyOf(1), entryOf(1, 4096))
	c.Put(keyOf(2), entryOf(2, 4096))
	if e, err := c.Get(keyOf(1)); err != nil || e == nil {
		t.Fatal("warming Get failed")
	}
	c.Put(keyOf(3), entryOf(3, 4096)) // must evict 2, not the refreshed 1
	if e, err := c.Get(keyOf(2)); err != nil || e != nil {
		t.Fatal("LRU victim survived")
	}
	if e, err := c.Get(keyOf(1)); err != nil || e == nil {
		t.Fatal("recently used entry was evicted")
	}
}

func testReplaceSameKey(t *testing.T) {
	c := retrievecache.New(1 << 20)
	c.Put(keyOf(1), entryOf(1, 512))
	replacement := entryOf(2, 2048)
	replacementImg := append([]byte(nil), replacement.Image...)
	c.Put(keyOf(1), replacement)
	if c.Len() != 1 {
		t.Fatalf("replacement duplicated the key: %d entries", c.Len())
	}
	e, err := c.Get(keyOf(1))
	if err != nil || e == nil || !bytes.Equal(e.Image, replacementImg) {
		t.Fatal("replacement did not take effect")
	}
	// Bytes accounting must reflect the replacement, not the sum.
	st := c.Stats()
	if st.Bytes <= 2048 || st.Bytes >= 2048+512 {
		t.Fatalf("bytes after replacement = %d, want ~2048+overhead", st.Bytes)
	}
}

func testOversizedRejected(t *testing.T) {
	c := retrievecache.New(1024)
	c.Put(keyOf(1), entryOf(1, 128))
	if c.Put(keyOf(2), entryOf(2, 4096)) {
		t.Fatal("entry larger than the whole budget was accepted")
	}
	// The resident entry must be untouched — rejection evicts nothing.
	if e, err := c.Get(keyOf(1)); err != nil || e == nil {
		t.Fatal("rejection disturbed resident entries")
	}
	st := c.Stats()
	if st.Rejected != 1 || st.Evictions != 0 || st.Entries != 1 {
		t.Fatalf("stats after rejection = %+v", st)
	}
}

func testStatsAccounting(t *testing.T) {
	c := retrievecache.New(1 << 20)
	var want int64
	for i := 0; i < 8; i++ {
		c.Put(keyOf(i), entryOf(i, 100*(i+1)))
	}
	st := c.Stats()
	if st.Entries != 8 || st.Puts != 8 {
		t.Fatalf("stats = %+v, want 8 entries / 8 puts", st)
	}
	// Bytes covers at least the payloads and is consistent: removing
	// everything returns it to zero.
	for i := 0; i < 8; i++ {
		want += int64(100 * (i + 1))
	}
	if st.Bytes < want {
		t.Fatalf("bytes = %d accounts less than the %d payload bytes", st.Bytes, want)
	}
	if st.MaxBytes != 1<<20 {
		t.Fatalf("MaxBytes = %d", st.MaxBytes)
	}
	for i := 0; i < 8; i++ {
		if !c.Remove(keyOf(i)) {
			t.Fatalf("Remove(%d) found nothing", i)
		}
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("after removing all: %+v", st)
	}
}

func testPoisonDetected(t *testing.T) {
	c := retrievecache.New(1 << 20)
	e := entryOf(1, 1024)
	c.Put(keyOf(1), e)
	// Simulate post-insertion corruption (bit rot, an aliasing bug): the
	// cache holds the same backing array, so scribbling on it models a
	// poisoned entry exactly.
	e.Image[512] ^= 0xFF
	got, err := c.Get(keyOf(1))
	if !errors.Is(err, retrievecache.ErrPoisoned) {
		t.Fatalf("poisoned hit returned (%v, %v), want ErrPoisoned", got, err)
	}
	// The poisoned entry must be gone: the next lookup is a clean miss.
	if e, err := c.Get(keyOf(1)); err != nil || e != nil {
		t.Fatalf("poisoned entry still resident: (%v, %v)", e, err)
	}
	st := c.Stats()
	if st.Poisoned != 1 || st.Entries != 0 {
		t.Fatalf("stats after poison = %+v", st)
	}
}

func testRemove(t *testing.T) {
	c := retrievecache.New(1 << 20)
	c.Put(keyOf(1), entryOf(1, 64))
	if !c.Remove(keyOf(1)) {
		t.Fatal("Remove missed a resident entry")
	}
	if c.Remove(keyOf(1)) {
		t.Fatal("double Remove reported success")
	}
	if e, err := c.Get(keyOf(1)); err != nil || e != nil {
		t.Fatal("removed entry still served")
	}
}

func testConcurrentMixed(t *testing.T) {
	c := retrievecache.New(fitN(16, 4096))
	const workers, iters = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (w*iters + i) % 32 // contended key space > capacity
				switch i % 3 {
				case 0:
					c.Put(keyOf(k), entryOf(k, 4096))
				case 1:
					e, err := c.Get(keyOf(k))
					if err != nil {
						t.Errorf("worker %d: Get: %v", w, err)
						return
					}
					if e != nil && len(e.Image) != 4096 {
						t.Errorf("worker %d: hit with %d image bytes", w, len(e.Image))
						return
					}
				case 2:
					c.Remove(keyOf(k))
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes > st.MaxBytes {
		t.Fatalf("budget exceeded after concurrent churn: %+v", st)
	}
	if st.Hits+st.Misses == 0 || st.Puts == 0 {
		t.Fatalf("no traffic recorded: %+v", st)
	}
}
