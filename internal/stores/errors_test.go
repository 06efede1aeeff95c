package stores

import (
	"strings"
	"testing"

	"expelliarmus/internal/catalog"
	"expelliarmus/internal/chunker"
	"expelliarmus/internal/core"
	"expelliarmus/internal/simio"
)

// TestManifestRoundTrip exercises the Mirage/Hemera manifest codec
// directly, including empty and metadata-only manifests.
func TestManifestRoundTrip(t *testing.T) {
	meta := imageMeta{
		base:      [4]string{"linux", "ubuntu", "16.04", "x86_64"},
		primaries: []string{"redis-server", "apache2"},
	}
	entries := []manifestEntry{
		{path: "/usr", dir: true},
		{path: "/usr/bin/app", size: 1234, inDB: true},
		{path: "/etc/conf", size: 5},
	}
	data := encodeManifest(1<<20, meta, entries)
	vs, gotMeta, gotEntries, err := decodeManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if vs != 1<<20 {
		t.Fatalf("virtual size = %d", vs)
	}
	if gotMeta.base != meta.base || len(gotMeta.primaries) != 2 {
		t.Fatalf("meta = %+v", gotMeta)
	}
	if len(gotEntries) != 3 || !gotEntries[0].dir || !gotEntries[1].inDB ||
		gotEntries[1].size != 1234 || gotEntries[2].path != "/etc/conf" {
		t.Fatalf("entries = %+v", gotEntries)
	}
	// Empty manifest round trip.
	empty := encodeManifest(0, imageMeta{}, nil)
	if _, _, e2, err := decodeManifest(empty); err != nil || len(e2) != 0 {
		t.Fatalf("empty manifest: %v, %v", e2, err)
	}
}

func TestManifestDecodeRejectsCorrupt(t *testing.T) {
	meta := imageMeta{base: [4]string{"l", "u", "16", "x"}}
	data := encodeManifest(4096, meta, []manifestEntry{{path: "/f", size: 9}})
	for _, cut := range []int{1, 5, len(data) / 2, len(data) - 1} {
		if _, _, _, err := decodeManifest(data[:cut]); err == nil {
			t.Errorf("accepted manifest truncated to %d bytes", cut)
		}
	}
	if _, _, _, err := decodeManifest(nil); err == nil {
		t.Error("accepted nil manifest")
	}
}

// TestBlockDedupRecipeCorruption: a corrupted recipe must fail loudly, not
// reconstruct a wrong image.
func TestBlockDedupRecipeCorruption(t *testing.T) {
	s := NewBlockDedup(testDev, chunker.NewFixed(catalog.ClusterSize))
	if _, err := s.Publish(image(t, "Mini")); err != nil {
		t.Fatal(err)
	}
	val, ok := s.db.Bucket("recipes").Get([]byte("Mini"))
	if !ok {
		t.Fatal("recipe missing")
	}
	// Truncate mid-chunk-list: length no longer a multiple of 32.
	s.db.Bucket("recipes").Put([]byte("Mini"), val[:len(val)-7])
	if _, _, err := s.Retrieve("Mini"); err == nil ||
		!strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("corrupted recipe retrieval: %v", err)
	}
}

// TestExpelPublishIdempotentStats: republishing through the adapter keeps
// the repository stable and similarity near 1.
func TestExpelPublishIdempotentStats(t *testing.T) {
	exp := NewExpel(testDev, core.Options{})
	if _, err := exp.Publish(image(t, "Redis")); err != nil {
		t.Fatal(err)
	}
	size := exp.SizeBytes()
	st, err := exp.Publish(image(t, "Redis"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Similarity < 0.99 {
		t.Fatalf("identical republish similarity = %v", st.Similarity)
	}
	if len(st.Exported) != 0 {
		t.Fatalf("identical republish exported %d packages", len(st.Exported))
	}
	if grown := exp.SizeBytes() - size; grown > 64*1024 {
		t.Fatalf("identical republish grew repo %d bytes", grown)
	}
}

// TestPhaseBreakdownsSumToTotal: every store's stats decompose cleanly.
func TestPhaseBreakdownsSumToTotal(t *testing.T) {
	for _, s := range allStores() {
		st, err := s.Publish(image(t, "Mini"))
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		var sum float64
		for _, v := range st.Phases {
			sum += v
		}
		if diff := st.Seconds - sum; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("%s: phases sum %.3f != total %.3f", s.Name(), sum, st.Seconds)
		}
	}
}

// TestDeviceSharedAcrossStores: stores must not mutate the shared device.
func TestDeviceSharedAcrossStores(t *testing.T) {
	dev := simio.NewDevice(simio.PaperProfile().Scaled(catalog.ByteScale, catalog.FileScale))
	before := dev.Profile()
	a := NewMirage(dev)
	b := NewHemera(dev)
	img := image(t, "Mini")
	a.Publish(img)
	b.Publish(img)
	if dev.Profile() != before {
		t.Fatal("store mutated the shared device profile")
	}
}
