package catalog

import (
	"bytes"
	"compress/gzip"
	"testing"

	"expelliarmus/internal/pkgmgr"
)

func TestUniverseWellFormed(t *testing.T) {
	u := NewUniverse()
	names := u.Names()
	if len(names) < 150 {
		t.Fatalf("universe has only %d packages", len(names))
	}
	// Every dependency resolves.
	for _, n := range names {
		p, ok := u.Lookup(n)
		if !ok {
			t.Fatalf("Lookup(%s) failed", n)
		}
		for _, d := range p.Depends {
			if _, ok := u.Lookup(d); !ok {
				t.Errorf("%s depends on unknown %s", n, d)
			}
		}
	}
}

func TestUniverseCycleExists(t *testing.T) {
	u := NewUniverse()
	// The paper's libc6/perl-base/dpkg cycle must be present and grouped.
	order, err := pkgmgr.InstallOrder(u, []string{"libc6", "perl-base", "dpkg"})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 1 || len(order[0]) != 3 {
		t.Fatalf("cycle not grouped: %v", order)
	}
}

func TestBaseSizeMatchesMini(t *testing.T) {
	u := NewUniverse()
	var base int64
	for _, n := range u.EssentialNames() {
		s, _ := u.Spec(n)
		base += s.InstalledSize
	}
	// The Mini image is ~1.9 GB mounted; base content sits near 1.3 GB,
	// leaving room for churn, block fragmentation and filesystem metadata.
	if base < 1200*mb || base > 1500*mb {
		t.Fatalf("base installed = %.2f GB, want ~1.3 GB", float64(base)/1e9)
	}
	var baseFiles int
	for _, n := range u.EssentialNames() {
		s, _ := u.Spec(n)
		baseFiles += s.FileCount
	}
	if baseFiles < 60000 || baseFiles > 72000 {
		t.Fatalf("base files = %d, want ~67k", baseFiles)
	}
}

func TestEssentialClosureIsEssentialOnly(t *testing.T) {
	u := NewUniverse()
	closure, err := pkgmgr.Closure(u, u.EssentialNames())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range closure {
		p, _ := u.Lookup(n)
		if !p.Essential {
			t.Errorf("essential closure pulled in non-essential %s", n)
		}
	}
}

func TestAppClosuresResolve(t *testing.T) {
	u := NewUniverse()
	for _, tpl := range Paper19() {
		if _, err := pkgmgr.Closure(u, tpl.Primaries); err != nil {
			t.Errorf("template %s: %v", tpl.Name, err)
		}
	}
}

func TestFilesForDeterministicAndSized(t *testing.T) {
	u := NewUniverse()
	a, err := u.FilesFor("redis-server")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := u.FilesFor("redis-server")
	if len(a) != len(b) {
		t.Fatal("file counts differ between generations")
	}
	var totalA int64
	for i := range a {
		if a[i].Path != b[i].Path || !bytes.Equal(a[i].Data, b[i].Data) {
			t.Fatalf("file %d differs between generations", i)
		}
		totalA += int64(len(a[i].Data))
	}
	spec, _ := u.Spec("redis-server")
	want := Real(spec.InstalledSize)
	if totalA < want*95/100 || totalA > want*105/100 {
		t.Fatalf("generated %d bytes, want ~%d", totalA, want)
	}
	wantFiles := RealFiles(spec.FileCount) + 1 // + conf
	if len(a) != wantFiles {
		t.Fatalf("generated %d files, want %d", len(a), wantFiles)
	}
	if _, err := u.FilesFor("no-such-package"); err == nil {
		t.Fatal("FilesFor accepted unknown package")
	}
}

func TestGenContentDeterministicAndDistinct(t *testing.T) {
	a := GenContent(42, 10000)
	b := GenContent(42, 10000)
	c := GenContent(43, 10000)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different content")
	}
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical content")
	}
	if len(GenContent(1, 0)) != 0 {
		t.Fatal("GenContent(_,0) non-empty")
	}
	if len(GenContent(1, 7)) != 7 {
		t.Fatal("GenContent length mismatch")
	}
}

func TestGenContentCompressibility(t *testing.T) {
	data := GenContent(7, 1<<20)
	var buf bytes.Buffer
	w, _ := gzip.NewWriterLevel(&buf, gzip.DefaultCompression)
	w.Write(data)
	w.Close()
	ratio := float64(len(data)) / float64(buf.Len())
	// Target ≈2.8x (the paper's whole-image gzip ratio); accept a band.
	if ratio < 2.0 || ratio > 4.0 {
		t.Fatalf("gzip ratio = %.2fx, want within [2.0, 4.0]", ratio)
	}
}

func TestSplitSizesConserves(t *testing.T) {
	for _, tc := range []struct {
		total int64
		n     int
	}{{1000, 1}, {1000, 7}, {999999, 100}, {5, 10}} {
		sizes := splitSizes(1, tc.total, tc.n)
		if len(sizes) != tc.n {
			t.Fatalf("n=%d: got %d sizes", tc.n, len(sizes))
		}
		var sum int64
		for _, s := range sizes {
			sum += s
		}
		if sum != tc.total {
			t.Fatalf("total=%d n=%d: sizes sum to %d", tc.total, tc.n, sum)
		}
	}
}

func TestScaleHelpers(t *testing.T) {
	if Real(1024) != 1 || Paper(1) != 1024 {
		t.Fatal("byte scaling wrong")
	}
	if RealFiles(0) != 0 || RealFiles(1) != 1 || RealFiles(640) != 10 {
		t.Fatal("file scaling wrong")
	}
	if PaperFiles(10) != 640 {
		t.Fatal("PaperFiles wrong")
	}
}

func TestPaper19Order(t *testing.T) {
	tpls := Paper19()
	if len(tpls) != 19 {
		t.Fatalf("Paper19 has %d templates", len(tpls))
	}
	want := []string{"Mini", "Redis", "PostgreSql", "Django", "RabbitMQ", "Base",
		"CouchDB", "Cassandra", "Tomcat", "Lapp", "Lemp", "MongoDb", "OwnCloud",
		"Desktop", "ApacheSolr", "IDE", "Jenkins", "Redmine", "ElasticStack"}
	for i, tt := range tpls {
		if tt.Name != want[i] {
			t.Fatalf("template %d = %s, want %s (Table II order)", i, tt.Name, want[i])
		}
	}
}

func TestPaper4Subset(t *testing.T) {
	tpls := Paper4()
	if len(tpls) != 4 {
		t.Fatalf("Paper4 has %d templates", len(tpls))
	}
	want := []string{"Mini", "Base", "Desktop", "IDE"}
	for i, tt := range tpls {
		if tt.Name != want[i] {
			t.Fatalf("Paper4[%d] = %s, want %s", i, tt.Name, want[i])
		}
	}
}

func TestDesktopExportsMany(t *testing.T) {
	tpl, ok := Find("Desktop")
	if !ok {
		t.Fatal("Desktop template missing")
	}
	// The paper reports 126 packages exported for Desktop; the primary set
	// alone should be >100.
	if len(tpl.Primaries) < 100 {
		t.Fatalf("Desktop has %d primaries", len(tpl.Primaries))
	}
}

func TestIDEBuildsShareSeriesContent(t *testing.T) {
	builds := IDEBuilds(3)
	if len(builds) != 3 {
		t.Fatal("wrong build count")
	}
	// Shared churn identical across builds; instance churn differs.
	a := builds[0].ChurnFileSet()
	b := builds[1].ChurnFileSet()
	shared, distinct := 0, 0
	bByPath := map[string][]byte{}
	for _, f := range b {
		bByPath[f.Path] = f.Data
	}
	for _, f := range a {
		if other, ok := bByPath[f.Path]; ok && bytes.Equal(other, f.Data) {
			shared++
		} else {
			distinct++
		}
	}
	if shared == 0 {
		t.Fatal("IDE builds share no churn content")
	}
	if distinct == 0 {
		t.Fatal("IDE builds have no distinct churn content")
	}
	// User data identical across the series.
	ua, ub := builds[0].UserDataFileSet(), builds[1].UserDataFileSet()
	if len(ua) != len(ub) {
		t.Fatal("user data counts differ")
	}
	for i := range ua {
		if ua[i].Path != ub[i].Path || !bytes.Equal(ua[i].Data, ub[i].Data) {
			t.Fatal("user data differs across IDE builds")
		}
	}
}

func TestTemplateChurnUniquePerInstance(t *testing.T) {
	tpls := Paper19()
	a := tpls[0].ChurnFileSet() // Mini
	b := tpls[1].ChurnFileSet() // Redis
	bByPath := map[string][]byte{}
	for _, f := range b {
		bByPath[f.Path] = f.Data
	}
	for _, f := range a {
		if other, ok := bByPath[f.Path]; ok && bytes.Equal(other, f.Data) {
			t.Fatalf("churn file %s shared between different templates", f.Path)
		}
	}
}

func BenchmarkGenContent(b *testing.B) {
	b.SetBytes(1 << 20)
	for i := 0; i < b.N; i++ {
		GenContent(uint64(i), 1<<20)
	}
}
