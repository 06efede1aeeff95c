package stores

import (
	"fmt"
	"testing"

	"expelliarmus/internal/builder"
	"expelliarmus/internal/catalog"
	"expelliarmus/internal/chunker"
	"expelliarmus/internal/core"
	"expelliarmus/internal/fstree"
	"expelliarmus/internal/pkgmgr"
	"expelliarmus/internal/simio"
	"expelliarmus/internal/vmi"
)

var testDev = simio.NewDevice(simio.PaperProfile().Scaled(catalog.ByteScale, catalog.FileScale))

// imageCache builds each template once per test binary run.
var imageCache = map[string]*vmi.Image{}

func image(t testing.TB, name string) *vmi.Image {
	t.Helper()
	if img, ok := imageCache[name]; ok {
		return img.Clone()
	}
	tpl, ok := catalog.Find(name)
	if !ok {
		t.Fatalf("template %s missing", name)
	}
	img, err := builder.New(catalog.NewUniverse()).Build(tpl)
	if err != nil {
		t.Fatal(err)
	}
	imageCache[name] = img
	return img.Clone()
}

func allStores() []Store {
	return []Store{
		NewQcow2(testDev),
		NewGzip(testDev),
		NewMirage(testDev),
		NewHemera(testDev),
		NewBlockDedup(testDev, chunker.NewFixed(4096)),
		NewBlockDedup(testDev, chunker.NewRabin(4096)),
		NewExpel(testDev, core.Options{}),
	}
}

// TestRoundTripAllStores: every scheme must reproduce a functionally
// equivalent image — same installed packages, same user data.
func TestRoundTripAllStores(t *testing.T) {
	for _, s := range allStores() {
		t.Run(s.Name(), func(t *testing.T) {
			if s.Name() == "expelliarmus" {
				// Expelliarmus needs the base published first.
				if _, err := s.Publish(image(t, "Mini")); err != nil {
					t.Fatal(err)
				}
			}
			orig := image(t, "Redis")
			origFS, _ := orig.Mount()
			origMgr, _ := pkgmgr.New(origFS)
			origPkgs, _ := origMgr.Installed()

			if _, err := s.Publish(image(t, "Redis")); err != nil {
				t.Fatal(err)
			}
			got, _, err := s.Retrieve("Redis")
			if err != nil {
				t.Fatal(err)
			}
			if got.Name != "Redis" {
				t.Fatalf("name = %q", got.Name)
			}
			if got.Base != catalog.DefaultBase {
				t.Fatalf("base attrs lost: %v", got.Base)
			}
			if len(got.Primaries) != 1 || got.Primaries[0] != "redis-server" {
				t.Fatalf("primaries lost: %v", got.Primaries)
			}
			fs, err := got.Mount()
			if err != nil {
				t.Fatalf("mount retrieved image: %v", err)
			}
			mgr, err := pkgmgr.New(fs)
			if err != nil {
				t.Fatal(err)
			}
			pkgs, _ := mgr.Installed()
			if len(pkgs) != len(origPkgs) {
				t.Fatalf("retrieved %d packages, want %d", len(pkgs), len(origPkgs))
			}
			if !fs.Exists("/usr/bin/redis-server") {
				t.Fatal("redis binary missing")
			}
			// User data must survive every scheme.
			found := false
			for _, root := range vmi.UserDataRoots {
				if !fs.Exists(root) {
					continue
				}
				fs.Walk(root, func(fi fstree.FileInfo) error {
					if !fi.IsDir {
						found = true
					}
					return nil
				})
			}
			if !found {
				t.Fatal("user data lost")
			}
		})
	}
}

func TestRetrieveMissingImage(t *testing.T) {
	for _, s := range allStores() {
		if _, _, err := s.Retrieve("nope"); err == nil {
			t.Errorf("%s: retrieved missing image", s.Name())
		}
	}
}

// TestStorageOrdering reproduces the qualitative Fig. 3 result on a small
// image set: qcow2 > gzip > mirage ≈ hemera > expelliarmus once several
// similar images are stored.
func TestStorageOrdering(t *testing.T) {
	names := []string{"Mini", "Redis", "Base"}
	qcow := NewQcow2(testDev)
	gz := NewGzip(testDev)
	mir := NewMirage(testDev)
	hem := NewHemera(testDev)
	exp := NewExpel(testDev, core.Options{})
	for _, n := range names {
		for _, s := range []Store{qcow, gz, mir, hem, exp} {
			if _, err := s.Publish(image(t, n)); err != nil {
				t.Fatalf("%s publish %s: %v", s.Name(), n, err)
			}
		}
	}
	q, g, mi, h, e := qcow.SizeBytes(), gz.SizeBytes(), mir.SizeBytes(), hem.SizeBytes(), exp.SizeBytes()
	t.Logf("sizes: qcow2=%d gzip=%d mirage=%d hemera=%d expel=%d", q, g, mi, h, e)
	// At small image counts gzip can still beat the dedup schemes (the
	// paper's Fig. 3a shows gzip 3.2 GB vs Mirage 3.4 GB at 4 images); the
	// raw format is always worst and Expelliarmus always at least matches
	// the file-level schemes.
	if q <= g || q <= mi || q <= h || q <= e {
		t.Errorf("qcow2 %d not the largest: %d %d %d %d", q, g, mi, h, e)
	}
	if e > mi {
		t.Errorf("expelliarmus %d above mirage %d", e, mi)
	}
	// Mirage and Hemera store the same content, differing only in DB vs
	// filesystem placement.
	diff := float64(mi-h) / float64(mi)
	if diff < -0.2 || diff > 0.2 {
		t.Errorf("mirage %d vs hemera %d differ by more than 20%%", mi, h)
	}
}

// TestBlockDedupAcrossImages: chunk-level dedup captures the shared base
// between two images, landing between qcow2 and the semantic scheme.
func TestBlockDedupAcrossImages(t *testing.T) {
	qcow := NewQcow2(testDev)
	// Chunk size must match the filesystem block size for fixed-size
	// dedup to capture cross-image redundancy — the chunk-size-selection
	// sensitivity reported by Jayaram et al. (ablation A1 sweeps this).
	fixed := NewBlockDedup(testDev, chunker.NewFixed(catalog.ClusterSize))
	for _, n := range []string{"Mini", "Redis"} {
		qcow.Publish(image(t, n))
		if _, err := fixed.Publish(image(t, n)); err != nil {
			t.Fatal(err)
		}
	}
	if fixed.SizeBytes() >= qcow.SizeBytes() {
		t.Errorf("block dedup %d not below qcow2 %d", fixed.SizeBytes(), qcow.SizeBytes())
	}
	// Jin et al.: block dedup detects a large share of identical content
	// between VMIs with the same guest OS.
	savings := 1 - float64(fixed.SizeBytes())/float64(qcow.SizeBytes())
	if savings < 0.2 {
		t.Errorf("block dedup savings = %.0f%%, want >= 20%%", savings*100)
	}
	t.Logf("block dedup savings over qcow2: %.0f%%", savings*100)
}

// TestRetrievalTimeOrdering reproduces the Fig. 5b shape: Mirage retrieval
// is slowest; Hemera and Expelliarmus are comparable.
func TestRetrievalTimeOrdering(t *testing.T) {
	mir := NewMirage(testDev)
	hem := NewHemera(testDev)
	exp := NewExpel(testDev, core.Options{})
	for _, n := range []string{"Mini", "Redis"} {
		for _, s := range []Store{mir, hem, exp} {
			if _, err := s.Publish(image(t, n)); err != nil {
				t.Fatal(err)
			}
		}
	}
	var secs = map[string]float64{}
	for _, s := range []Store{mir, hem, exp} {
		_, st, err := s.Retrieve("Redis")
		if err != nil {
			t.Fatal(err)
		}
		secs[s.Name()] = st.Seconds
	}
	t.Logf("retrieval seconds: %v", secs)
	if secs["mirage"] <= secs["hemera"] {
		t.Errorf("mirage %.1fs not slower than hemera %.1fs", secs["mirage"], secs["hemera"])
	}
	if secs["mirage"] <= secs["expelliarmus"] {
		t.Errorf("mirage %.1fs not slower than expelliarmus %.1fs", secs["mirage"], secs["expelliarmus"])
	}
	// Hemera and Expelliarmus "perform nearly equal for most VMIs".
	ratio := secs["hemera"] / secs["expelliarmus"]
	if ratio < 0.3 || ratio > 3.5 {
		t.Errorf("hemera/expelliarmus ratio = %.2f, want comparable", ratio)
	}
}

// TestPublishTimeOrdering reproduces the Fig. 4 shape for a small image:
// Expelliarmus publishes faster than Mirage and Hemera when the base is
// already stored.
func TestPublishTimeOrdering(t *testing.T) {
	mir := NewMirage(testDev)
	hem := NewHemera(testDev)
	exp := NewExpel(testDev, core.Options{})
	for _, s := range []Store{mir, hem, exp} {
		if _, err := s.Publish(image(t, "Mini")); err != nil {
			t.Fatal(err)
		}
	}
	var secs = map[string]float64{}
	for _, s := range []Store{mir, hem, exp} {
		st, err := s.Publish(image(t, "Redis"))
		if err != nil {
			t.Fatal(err)
		}
		secs[s.Name()] = st.Seconds
	}
	t.Logf("publish seconds: %v", secs)
	if secs["expelliarmus"] >= secs["mirage"] || secs["expelliarmus"] >= secs["hemera"] {
		t.Errorf("expelliarmus %.1fs not fastest: %v", secs["expelliarmus"], secs)
	}
}

func TestExpelReportsSimilarity(t *testing.T) {
	exp := NewExpel(testDev, core.Options{})
	st1, err := exp.Publish(image(t, "Mini"))
	if err != nil {
		t.Fatal(err)
	}
	if st1.Similarity != 0 {
		t.Fatalf("first publish similarity = %v", st1.Similarity)
	}
	st2, err := exp.Publish(image(t, "Redis"))
	if err != nil {
		t.Fatal(err)
	}
	if st2.Similarity < 0.9 {
		t.Fatalf("Redis similarity = %v, want ~0.97", st2.Similarity)
	}
	if len(st2.Exported) != 1 {
		t.Fatalf("Redis exported = %d", len(st2.Exported))
	}
	if exp.LastPublish == nil || exp.LastPublish.Image != "Redis" {
		t.Fatal("LastPublish not recorded")
	}
}

func TestGzipActuallyCompresses(t *testing.T) {
	qcow := NewQcow2(testDev)
	gz := NewGzip(testDev)
	qcow.Publish(image(t, "Mini"))
	gz.Publish(image(t, "Mini"))
	ratio := float64(qcow.SizeBytes()) / float64(gz.SizeBytes())
	if ratio < 2.0 || ratio > 4.2 {
		t.Errorf("gzip ratio = %.2f, want ~2.8 (paper Fig. 3b)", ratio)
	}
}

func TestRepublishReplacesQcow(t *testing.T) {
	qcow := NewQcow2(testDev)
	qcow.Publish(image(t, "Mini"))
	size1 := qcow.SizeBytes()
	qcow.Publish(image(t, "Mini"))
	if qcow.SizeBytes() != size1 {
		t.Fatalf("republishing same image changed size: %d -> %d", size1, qcow.SizeBytes())
	}
	if got := qcow.Images(); len(got) != 1 || got[0] != "Mini" {
		t.Fatalf("Images = %v", got)
	}
}

func TestStoreNames(t *testing.T) {
	want := map[string]bool{
		"qcow2": true, "qcow2+gzip": true, "mirage": true, "hemera": true,
		"blockdedup-fixed-4096": true, "blockdedup-rabin-4096": true,
		"expelliarmus": true,
	}
	for _, s := range allStores() {
		if !want[s.Name()] {
			t.Errorf("unexpected store name %q", s.Name())
		}
	}
}

func BenchmarkMiragePublish(b *testing.B) {
	img := image(b, "Mini")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewMirage(testDev)
		if _, err := s.Publish(img); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExpelPublish(b *testing.B) {
	img := image(b, "Mini")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewExpel(testDev, core.Options{})
		if _, err := s.Publish(img); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleStore() {
	dev := simio.NewDevice(simio.PaperProfile().Scaled(catalog.ByteScale, catalog.FileScale))
	s := NewQcow2(dev)
	tpl, _ := catalog.Find("Mini")
	img, _ := builder.New(catalog.NewUniverse()).Build(tpl)
	s.Publish(img)
	fmt.Println(len(s.Images()))
	// Output: 1
}
