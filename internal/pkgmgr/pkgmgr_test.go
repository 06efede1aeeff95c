package pkgmgr

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"expelliarmus/internal/fstree"
	"expelliarmus/internal/pkgfmt"
	"expelliarmus/internal/pkgmeta"
	"expelliarmus/internal/vdisk"
)

func newMgr(t *testing.T) (*Manager, *fstree.FS) {
	t.Helper()
	d := vdisk.New("guest", 16<<20, vdisk.DefaultClusterSize)
	fs, err := fstree.Format(d, 2048)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(fs)
	if err != nil {
		t.Fatal(err)
	}
	return m, fs
}

func pkg(name string, deps ...string) pkgmeta.Package {
	return pkgmeta.Package{
		Name: name, Version: "1.0", Arch: "amd64", Distro: "ubuntu",
		InstalledSize: 1000, Depends: deps,
	}
}

func filesFor(name string) []pkgfmt.File {
	return []pkgfmt.File{
		{Path: "/usr/bin/" + name, Data: []byte("binary of " + name)},
		{Path: "/usr/share/" + name + "/data", Data: bytes.Repeat([]byte{1}, 2000)},
	}
}

func TestInstallAndQuery(t *testing.T) {
	m, fs := newMgr(t)
	if err := m.InstallPackage(pkg("redis", "libc6"), filesFor("redis")); err != nil {
		t.Fatal(err)
	}
	if !m.IsInstalled("redis") {
		t.Fatal("redis not reported installed")
	}
	if m.IsInstalled("mongo") {
		t.Fatal("mongo reported installed")
	}
	got, ok, err := m.Get("redis")
	if err != nil || !ok {
		t.Fatalf("Get = %v, %v", ok, err)
	}
	if !reflect.DeepEqual(got, pkg("redis", "libc6")) {
		t.Fatalf("Get = %+v", got)
	}
	data, err := fs.ReadFile("/usr/bin/redis")
	if err != nil || string(data) != "binary of redis" {
		t.Fatalf("installed file: %q, %v", data, err)
	}
	owned, err := m.OwnedFiles("redis")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"/usr/bin/redis", "/usr/share/redis/data"}
	if !reflect.DeepEqual(owned, want) {
		t.Fatalf("OwnedFiles = %v", owned)
	}
}

func TestDoubleInstallFails(t *testing.T) {
	m, _ := newMgr(t)
	if err := m.InstallPackage(pkg("x"), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.InstallPackage(pkg("x"), nil); err == nil {
		t.Fatal("double install succeeded")
	}
}

// installBlob extracts a binary package and installs what it holds, as a
// retrieval does.
func installBlob(m *Manager, blob []byte) error {
	p, files, err := pkgfmt.Extract(blob)
	if err != nil {
		return err
	}
	return m.InstallPackage(p, files)
}

func TestInstallFromBlob(t *testing.T) {
	m, _ := newMgr(t)
	blob, err := pkgfmt.Build(pkg("nginx"), filesFor("nginx"))
	if err != nil {
		t.Fatal(err)
	}
	if err := installBlob(m, blob); err != nil {
		t.Fatal(err)
	}
	if !m.IsInstalled("nginx") {
		t.Fatal("blob install did not register package")
	}
	if err := installBlob(m, []byte("garbage")); err == nil {
		t.Fatal("installed garbage blob")
	}
}

func TestRemoveDeletesFilesAndPrunesDirs(t *testing.T) {
	m, fs := newMgr(t)
	if err := m.InstallPackage(pkg("tool"), filesFor("tool")); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("tool"); err != nil {
		t.Fatal(err)
	}
	if m.IsInstalled("tool") {
		t.Fatal("package still installed")
	}
	if fs.Exists("/usr/bin/tool") {
		t.Fatal("file survived removal")
	}
	if fs.Exists("/usr/share/tool") {
		t.Fatal("empty package dir not pruned")
	}
	if fs.Exists("/usr/share") {
		// /usr/share had only this package's subdir; pruning may remove it
		// entirely, which is fine — but /var/lib/dpkg must survive.
		t.Log("note: /usr/share pruned (empty)")
	}
	if !fs.Exists(StatusPath) {
		t.Fatal("status database lost")
	}
	if err := m.Remove("tool"); err == nil {
		t.Fatal("removing absent package succeeded")
	}
}

func TestRemoveKeepsSharedDirs(t *testing.T) {
	m, fs := newMgr(t)
	m.InstallPackage(pkg("a"), []pkgfmt.File{{Path: "/usr/bin/a", Data: []byte("a")}})
	m.InstallPackage(pkg("b"), []pkgfmt.File{{Path: "/usr/bin/b", Data: []byte("b")}})
	if err := m.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if !fs.Exists("/usr/bin/b") {
		t.Fatal("removing a deleted b's file")
	}
	if !fs.Exists("/usr/bin") {
		t.Fatal("shared directory pruned while non-empty")
	}
}

func TestRepackRoundTrip(t *testing.T) {
	m, _ := newMgr(t)
	original := pkg("mariadb", "libc6", "ucf")
	if err := m.InstallPackage(original, filesFor("mariadb")); err != nil {
		t.Fatal(err)
	}
	blob, err := m.Repack("mariadb")
	if err != nil {
		t.Fatal(err)
	}
	p, files, err := pkgfmt.Extract(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, original) {
		t.Fatalf("repacked metadata = %+v", p)
	}
	if len(files) != 2 {
		t.Fatalf("repacked %d files", len(files))
	}
	// Repack → fresh install on another guest reproduces the files.
	m2, fs2 := newMgr(t)
	if err := installBlob(m2, blob); err != nil {
		t.Fatal(err)
	}
	data, err := fs2.ReadFile("/usr/bin/mariadb")
	if err != nil || string(data) != "binary of mariadb" {
		t.Fatalf("reinstalled file: %q, %v", data, err)
	}
	if _, err := m.Repack("missing"); err == nil {
		t.Fatal("repacked missing package")
	}
}

func essential(name string, deps ...string) pkgmeta.Package {
	p := pkg(name, deps...)
	p.Essential = true
	return p
}

// strip removes the list Remaining(names) returns, in its order, and
// checks that it leaves exactly the packages Remaining said it would.
func strip(t *testing.T, m *Manager, names ...string) []string {
	t.Helper()
	kept, gone := m.Remaining(names)
	for _, name := range gone {
		if err := m.Remove(name); err != nil {
			t.Fatal(err)
		}
	}
	if left, _ := m.Installed(); !reflect.DeepEqual(left, kept) {
		t.Fatalf("strip left %v, Remaining said %v", left, kept)
	}
	return gone
}

func TestRemainingBasic(t *testing.T) {
	m, _ := newMgr(t)
	// app (a root) depends on lib; orphan has no dependents.
	m.InstallPackage(pkg("lib"), filesFor("lib"))
	m.InstallPackage(pkg("orphan"), filesFor("orphan"))
	m.InstallPackage(essential("app", "lib"), filesFor("app"))
	if removed := strip(t, m); !reflect.DeepEqual(removed, []string{"orphan"}) {
		t.Fatalf("removed = %v, want [orphan]", removed)
	}
	if !m.IsInstalled("lib") || !m.IsInstalled("app") {
		t.Fatal("kept packages were removed")
	}
}

func TestRemainingKeepsEssential(t *testing.T) {
	m, _ := newMgr(t)
	m.InstallPackage(essential("base-files"), filesFor("base-files"))
	m.InstallPackage(pkg("extra"), filesFor("extra"))
	if removed := strip(t, m); !reflect.DeepEqual(removed, []string{"extra"}) {
		t.Fatalf("removed = %v", removed)
	}
	if !m.IsInstalled("base-files") {
		t.Fatal("essential package removed")
	}
}

func TestRemainingCycleReachable(t *testing.T) {
	m, _ := newMgr(t)
	// libc6 <-> perl-base cycle (the paper's example), reachable from app.
	m.InstallPackage(pkg("libc6", "perl-base"), filesFor("libc6"))
	m.InstallPackage(pkg("perl-base", "libc6"), filesFor("perl-base"))
	m.InstallPackage(essential("app", "libc6"), filesFor("app"))
	if removed := strip(t, m); len(removed) != 0 {
		t.Fatalf("removed = %v, want none (cycle reachable)", removed)
	}
}

func TestRemainingCycleUnreachable(t *testing.T) {
	m, _ := newMgr(t)
	m.InstallPackage(pkg("loop-a", "loop-b"), filesFor("loop-a"))
	m.InstallPackage(pkg("loop-b", "loop-a"), filesFor("loop-b"))
	m.InstallPackage(essential("app"), filesFor("app"))
	if removed := strip(t, m); !reflect.DeepEqual(removed, []string{"loop-a", "loop-b"}) {
		t.Fatalf("removed = %v, want whole unreachable cycle", removed)
	}
}

// TestRemainingOrder: the removal list holds the named packages that are
// installed, once each and in the order given, then the dependencies no
// root reaches any more, by name — the order Algorithm 1 removes them in.
func TestRemainingOrder(t *testing.T) {
	m, _ := newMgr(t)
	m.InstallPackage(essential("base", "libc"), filesFor("base"))
	m.InstallPackage(pkg("libc"), filesFor("libc"))
	m.InstallPackage(pkg("zlib"), filesFor("zlib"))
	m.InstallPackage(pkg("libssl", "zlib"), filesFor("libssl"))
	m.InstallPackage(pkg("web", "libssl", "libc"), filesFor("web"))
	m.InstallPackage(pkg("db", "zlib"), filesFor("db"))
	want := []string{"web", "db", "libssl", "zlib"}
	if removed := strip(t, m, "web", "ghost", "db", "web"); !reflect.DeepEqual(removed, want) {
		t.Fatalf("removal list = %v, want %v", removed, want)
	}
}

// TestUpgradeReplacesFiles: replacing an installed package with another
// version — remove, then install the new build — leaves the new version's
// files and metadata and none of the old version's.
func TestUpgradeReplacesFiles(t *testing.T) {
	m, fs := newMgr(t)
	v1 := pkg("nginx")
	v1.Version = "1.0"
	if err := m.InstallPackage(v1, []pkgfmt.File{
		{Path: "/usr/bin/nginx", Data: []byte("v1 binary")},
		{Path: "/usr/lib/nginx/old-module", Data: []byte("obsolete")},
	}); err != nil {
		t.Fatal(err)
	}
	v2 := pkg("nginx")
	v2.Version = "2.0"
	blob, err := pkgfmt.Build(v2, []pkgfmt.File{
		{Path: "/usr/bin/nginx", Data: []byte("v2 binary")},
		{Path: "/usr/lib/nginx/new-module", Data: []byte("fresh")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("nginx"); err != nil {
		t.Fatal(err)
	}
	if err := installBlob(m, blob); err != nil {
		t.Fatal(err)
	}
	got, ok, _ := m.Get("nginx")
	if !ok || got.Version != "2.0" {
		t.Fatalf("after upgrade: %+v (ok=%v)", got, ok)
	}
	data, err := fs.ReadFile("/usr/bin/nginx")
	if err != nil || string(data) != "v2 binary" {
		t.Fatalf("binary = %q, %v", data, err)
	}
	if fs.Exists("/usr/lib/nginx/old-module") {
		t.Fatal("old version's file survived upgrade")
	}
	if !fs.Exists("/usr/lib/nginx/new-module") {
		t.Fatal("new version's file missing")
	}
}

// --- resolver tests ---

func testUniverse() MapUniverse {
	u := MapUniverse{}
	add := func(p pkgmeta.Package) { u[p.Name] = p }
	add(pkg("libc6", "perl-base", "dpkg"))
	add(pkg("perl-base", "libc6"))
	add(pkg("dpkg", "libc6"))
	add(pkg("bash", "libc6"))
	add(pkg("openjdk", "libc6", "bash"))
	add(pkg("tomcat8", "openjdk", "ucf"))
	add(pkg("ucf", "coreutils"))
	add(pkg("coreutils", "libc6"))
	add(pkg("mariadb", "libc6", "ucf"))
	return u
}

func TestClosure(t *testing.T) {
	u := testUniverse()
	got, err := Closure(u, []string{"tomcat8"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"bash", "coreutils", "dpkg", "libc6", "openjdk", "perl-base", "tomcat8", "ucf"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Closure = %v\nwant %v", got, want)
	}
}

func TestClosureMultipleRootsAndMissing(t *testing.T) {
	u := testUniverse()
	got, err := Closure(u, []string{"mariadb", "tomcat8"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 9 {
		t.Fatalf("Closure = %v", got)
	}
	if _, err := Closure(u, []string{"nonexistent"}); err == nil {
		t.Fatal("closure over missing package succeeded")
	}
	u["broken"] = pkg("broken", "missing-dep")
	if _, err := Closure(u, []string{"broken"}); err == nil {
		t.Fatal("closure over missing dependency succeeded")
	}
}

func TestClosureEmptyRoots(t *testing.T) {
	got, err := Closure(testUniverse(), nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("Closure(nil) = %v, %v", got, err)
	}
}

func groupIndex(order [][]string) map[string]int {
	idx := map[string]int{}
	for i, g := range order {
		for _, n := range g {
			idx[n] = i
		}
	}
	return idx
}

func TestInstallOrderCycleGrouped(t *testing.T) {
	u := testUniverse()
	names, _ := Closure(u, []string{"tomcat8", "mariadb"})
	order, err := InstallOrder(u, names)
	if err != nil {
		t.Fatal(err)
	}
	idx := groupIndex(order)
	// The libc6/perl-base/dpkg cycle must be one group.
	if idx["libc6"] != idx["perl-base"] || idx["libc6"] != idx["dpkg"] {
		t.Fatalf("cycle split across groups: %v", order)
	}
	// Dependencies come before dependents.
	deps := map[string][]string{
		"bash": {"libc6"}, "openjdk": {"libc6", "bash"},
		"tomcat8": {"openjdk", "ucf"}, "ucf": {"coreutils"},
		"coreutils": {"libc6"}, "mariadb": {"libc6", "ucf"},
	}
	for p, ds := range deps {
		for _, d := range ds {
			if idx[d] > idx[p] {
				t.Fatalf("%s (group %d) installed before its dependency %s (group %d)",
					p, idx[p], d, idx[d])
			}
		}
	}
	// Every package appears exactly once.
	count := 0
	for _, g := range order {
		count += len(g)
	}
	if count != len(names) {
		t.Fatalf("order covers %d packages, want %d", count, len(names))
	}
}

func TestInstallOrderDeterministic(t *testing.T) {
	u := testUniverse()
	names, _ := Closure(u, []string{"tomcat8", "mariadb"})
	a, err := InstallOrder(u, names)
	if err != nil {
		t.Fatal(err)
	}
	b, err := InstallOrder(u, names)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("InstallOrder not deterministic")
	}
}

func TestInstallOrderUnknownPackage(t *testing.T) {
	if _, err := InstallOrder(testUniverse(), []string{"ghost"}); err == nil {
		t.Fatal("unknown package accepted")
	}
}

func TestInstallOrderIgnoresOutOfSetEdges(t *testing.T) {
	u := testUniverse()
	// bash depends on libc6, but when libc6 is outside the requested set
	// the edge is ignored (it is assumed present already).
	order, err := InstallOrder(u, []string{"bash"})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 1 || order[0][0] != "bash" {
		t.Fatalf("order = %v", order)
	}
}

// TestQuickInstallOrderRespectsDeps: for random DAG-ish universes the
// install order always places dependencies in the same or an earlier group.
func TestQuickInstallOrderRespectsDeps(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(30) + 2
		u := MapUniverse{}
		names := make([]string, n)
		for i := 0; i < n; i++ {
			names[i] = fmt.Sprintf("p%02d", i)
		}
		for i := 0; i < n; i++ {
			var deps []string
			for j := 0; j < i; j++ { // edges to earlier vertices: acyclic
				if rng.Intn(4) == 0 {
					deps = append(deps, names[j])
				}
			}
			// Occasionally close a cycle.
			if i > 0 && rng.Intn(10) == 0 {
				deps = append(deps, names[rng.Intn(n)])
			}
			u[names[i]] = pkg(names[i], deps...)
		}
		order, err := InstallOrder(u, names)
		if err != nil {
			return false
		}
		idx := groupIndex(order)
		if len(idx) != n {
			return false
		}
		for _, p := range u {
			for _, d := range p.Depends {
				if idx[d] > idx[p.Name] {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

// TestInstallOrderLongChainAndCycle: a 10 000-long dependency chain
// installs one package per group from its far end, and a 10 000-member
// cycle installs as one group.
func TestInstallOrderLongChainAndCycle(t *testing.T) {
	const n = 10000
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("p%05d", i)
	}
	chain, cycle := MapUniverse{}, MapUniverse{}
	for i, name := range names {
		if i+1 < n {
			chain[name] = pkg(name, names[i+1])
		} else {
			chain[name] = pkg(name)
		}
		cycle[name] = pkg(name, names[(i+1)%n])
	}
	order, err := InstallOrder(chain, names)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != n {
		t.Fatalf("chain: %d groups, want %d", len(order), n)
	}
	for k, g := range order {
		if len(g) != 1 || g[0] != names[n-1-k] {
			t.Fatalf("chain: group %d = %v, want [%s]", k, g, names[n-1-k])
		}
	}
	order, err = InstallOrder(cycle, names)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 1 || !reflect.DeepEqual(order[0], names) {
		t.Fatalf("cycle: %d groups, want one of all %d packages", len(order), n)
	}
}

// TestInstallOrderMatchesReachability holds InstallOrder on seeded random
// graphs, cycles and dependencies outside the set included, against a
// brute-force oracle: two packages share a group exactly when each reaches
// the other through the set, and every dependency in the set sits in an
// earlier group or the same one.
func TestInstallOrderMatchesReachability(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(14) + 1
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("p%02d", i)
		}
		u := MapUniverse{}
		reach := make([][]bool, n) // reach[i][j]: i reaches j in the set
		for i, name := range names {
			reach[i] = make([]bool, n)
			reach[i][i] = true
			var deps []string
			for j := range names {
				if rng.Intn(5) == 0 {
					deps = append(deps, names[j])
					reach[i][j] = true
				}
			}
			if rng.Intn(3) == 0 {
				deps = append(deps, "outside")
			}
			u[name] = pkg(name, deps...)
		}
		for k := range names {
			for i := range names {
				for j := range names {
					reach[i][j] = reach[i][j] || reach[i][k] && reach[k][j]
				}
			}
		}
		order, err := InstallOrder(u, names)
		if err != nil {
			t.Fatal(err)
		}
		idx := groupIndex(order)
		if covered := len(slices.Concat(order...)); covered != n || len(idx) != n {
			t.Fatalf("seed %d: %d groups cover %d entries of %d packages", seed, len(order), covered, n)
		}
		for i, a := range names {
			for j, b := range names {
				if same := idx[a] == idx[b]; same != (reach[i][j] && reach[j][i]) {
					t.Fatalf("seed %d: %s and %s share a group: %v; reach each other: %v\norder %v",
						seed, a, b, same, reach[i][j] && reach[j][i], order)
				}
			}
			for _, d := range u[a].Depends {
				if _, in := idx[d]; in && idx[d] > idx[a] {
					t.Fatalf("seed %d: %s (group %d) before its dependency %s (group %d)", seed, a, idx[a], d, idx[d])
				}
			}
		}
	}
}

// TestQuickInstallRemoveRestoresFS: installing then removing random
// packages restores the filesystem's file count.
func TestQuickInstallRemoveRestoresFS(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := vdisk.New("g", 16<<20, vdisk.DefaultClusterSize)
		fs, err := fstree.Format(d, 1024)
		if err != nil {
			return false
		}
		m, err := New(fs)
		if err != nil {
			return false
		}
		baseFiles := fs.NumFiles()
		n := rng.Intn(8) + 1
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("pkg%d", i)
			var files []pkgfmt.File
			for j := 0; j < rng.Intn(5)+1; j++ {
				data := make([]byte, rng.Intn(5000))
				rng.Read(data)
				files = append(files, pkgfmt.File{
					Path: fmt.Sprintf("/opt/%s/f%d", name, j), Data: data,
				})
			}
			if err := m.InstallPackage(pkg(name), files); err != nil {
				return false
			}
		}
		for i := 0; i < n; i++ {
			if err := m.Remove(fmt.Sprintf("pkg%d", i)); err != nil {
				return false
			}
		}
		return fs.NumFiles() == baseFiles
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInstallRemove(b *testing.B) {
	d := vdisk.New("bench", 64<<20, vdisk.DefaultClusterSize)
	fs, _ := fstree.Format(d, 8192)
	m, _ := New(fs)
	files := filesFor("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pkg(fmt.Sprintf("bench%d", i))
		if err := m.InstallPackage(p, files); err != nil {
			b.Fatal(err)
		}
		if err := m.Remove(p.Name); err != nil {
			b.Fatal(err)
		}
	}
}
