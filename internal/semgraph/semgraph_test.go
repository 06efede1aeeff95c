package semgraph

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"expelliarmus/internal/pkgmeta"
)

var testBase = pkgmeta.BaseAttrs{Type: "linux", Distro: "debian", Version: "9", Arch: "x86_64"}

func pkg(name string, essential bool, deps ...string) pkgmeta.Package {
	return pkgmeta.Package{
		Name: name, Version: "1.0", Arch: "amd64", Distro: "debian",
		InstalledSize: 1000, Depends: deps, Essential: essential,
	}
}

// paperExample builds the Fig. 1a graph: Debian base, MariaDB and Tomcat8
// primaries, and the cyclic libc6/perl-base/dpkg dependencies.
func paperExample() *Graph {
	installed := []pkgmeta.Package{
		pkg("libc6", true, "perl-base", "dpkg"),
		pkg("perl-base", true, "libc6", "dpkg"),
		pkg("dpkg", true, "libc6", "perl-base"),
		pkg("bash", true, "libc6"),
		pkg("coreutils", true, "libc6"),
		pkg("gawk", true, "libc6"),
		pkg("debconf", true, "perl-base"),
		pkg("ucf", false, "debconf", "coreutils"),
		pkg("openjdk", false, "libc6"),
		pkg("mariadb", false, "libc6", "ucf"),
		pkg("tomcat8", false, "openjdk", "ucf"),
	}
	return Build(testBase, installed, []string{"mariadb", "tomcat8"})
}

func TestBuildKinds(t *testing.T) {
	g := paperExample()
	if g.Len() != 11 {
		t.Fatalf("Len = %d, want 11", g.Len())
	}
	for name, want := range map[string]Kind{
		"libc6":   KindBase,
		"bash":    KindBase,
		"mariadb": KindPrimary,
		"tomcat8": KindPrimary,
		"ucf":     KindDependency,
		"openjdk": KindDependency,
	} {
		v, ok := g.Vertex(name)
		if !ok {
			t.Fatalf("vertex %s missing", name)
		}
		if v.Kind != want {
			t.Errorf("%s kind = %v, want %v", name, v.Kind, want)
		}
	}
	if g.Base() != testBase {
		t.Errorf("Base = %v", g.Base())
	}
}

func TestEdgesAndCycle(t *testing.T) {
	g := paperExample()
	if !reflect.DeepEqual(g.Succ("libc6"), []string{"dpkg", "perl-base"}) {
		t.Fatalf("Succ(libc6) = %v", g.Succ("libc6"))
	}
	// Cycle: libc6 -> perl-base -> libc6.
	found := false
	for _, s := range g.Succ("perl-base") {
		if s == "libc6" {
			found = true
		}
	}
	if !found {
		t.Fatal("cycle edge perl-base -> libc6 missing")
	}
	if g.NumEdges() == 0 {
		t.Fatal("no edges")
	}
}

func TestAddEdgeUnknownVertex(t *testing.T) {
	g := New(testBase)
	g.AddVertex(pkg("a", false), KindDependency)
	if err := g.AddEdge("a", "ghost"); err == nil {
		t.Fatal("edge to unknown vertex accepted")
	}
	if err := g.AddEdge("ghost", "a"); err == nil {
		t.Fatal("edge from unknown vertex accepted")
	}
}

func TestBaseSubgraph(t *testing.T) {
	g := paperExample()
	bs := g.BaseSubgraph()
	want := []string{"bash", "coreutils", "debconf", "dpkg", "gawk", "libc6", "perl-base"}
	if !reflect.DeepEqual(bs.Names(), want) {
		t.Fatalf("base subgraph = %v", bs.Names())
	}
	// Induced edges only.
	for _, from := range bs.Names() {
		for _, to := range bs.Succ(from) {
			if !bs.HasVertex(to) {
				t.Fatalf("dangling edge %s->%s", from, to)
			}
		}
	}
	// Cycle preserved inside the subgraph.
	if len(bs.Succ("libc6")) != 2 {
		t.Fatalf("libc6 lost edges: %v", bs.Succ("libc6"))
	}
}

func TestPrimarySubgraph(t *testing.T) {
	g := paperExample()
	ps := g.PrimarySubgraph()
	// Closure of mariadb and tomcat8: both primaries plus ucf, openjdk,
	// debconf, coreutils, libc6 (homonym of base), perl-base, dpkg.
	want := []string{"coreutils", "debconf", "dpkg", "libc6", "mariadb",
		"openjdk", "perl-base", "tomcat8", "ucf"}
	if !reflect.DeepEqual(ps.Names(), want) {
		t.Fatalf("primary subgraph = %v", ps.Names())
	}
	if !reflect.DeepEqual(ps.PrimaryNames(), []string{"mariadb", "tomcat8"}) {
		t.Fatalf("primaries = %v", ps.PrimaryNames())
	}
}

// TestClosure: a root's closure follows the libc6/perl-base/dpkg cycle once
// and keeps its edges, a root that is not a vertex adds nothing, the
// closure of the primaries is the primary subgraph, and the base subgraph
// united with the closure of several roots is the base subgraph united
// with each root's closure in turn (the identity core's master rebuild
// relies on).
func TestClosure(t *testing.T) {
	g := paperExample()
	c := g.Closure("debconf")
	if want := []string{"debconf", "dpkg", "libc6", "perl-base"}; !reflect.DeepEqual(c.Names(), want) {
		t.Fatalf("Closure(debconf) = %v, want %v", c.Names(), want)
	}
	if !reflect.DeepEqual(c.Succ("libc6"), []string{"dpkg", "perl-base"}) || !reflect.DeepEqual(c.Succ("perl-base"), []string{"dpkg", "libc6"}) {
		t.Fatalf("cycle edges lost: libc6 -> %v, perl-base -> %v", c.Succ("libc6"), c.Succ("perl-base"))
	}
	if v, _ := c.Vertex("libc6"); v.Kind != KindBase || c.Base() != testBase {
		t.Fatalf("closure lost kinds or base: %v, %v", v.Kind, c.Base())
	}
	if ghost := g.Closure("ghost"); ghost.Len() != 0 {
		t.Fatalf("Closure(ghost) = %v, want no vertex", ghost.Names())
	}
	if got, want := g.Closure("ghost", "bash").Names(), g.Closure("bash").Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Closure(ghost, bash) = %v, want %v", got, want)
	}
	if !bytes.Equal(g.Closure("tomcat8", "mariadb").Marshal(), g.PrimarySubgraph().Marshal()) {
		t.Fatal("closure of the primaries differs from the primary subgraph")
	}
	roots := []string{"tomcat8", "mariadb", "tomcat8", "libc6", "ghost"}
	one, each := g.BaseSubgraph(), g.BaseSubgraph()
	one.Union(g.Closure(roots...))
	for _, r := range roots {
		each.Union(g.Closure(r))
	}
	if !bytes.Equal(one.Marshal(), each.Marshal()) {
		t.Fatalf("base subgraph with Closure(%v) differs from it with each root's closure", roots)
	}
}

func TestSubgraphsAreViews(t *testing.T) {
	g := paperExample()
	bs := g.BaseSubgraph()
	// Subgraph vertices are subsets of the graph's.
	for _, n := range bs.Names() {
		if !g.HasVertex(n) {
			t.Fatalf("subgraph invented vertex %s", n)
		}
	}
	// Mutating the subgraph does not affect the parent.
	bs.AddVertex(pkg("intruder", false), KindDependency)
	if g.HasVertex("intruder") {
		t.Fatal("subgraph mutation leaked into parent")
	}
}

func TestUnionIdempotentCommutative(t *testing.T) {
	g1 := paperExample()
	g2 := paperExample()
	before := g1.Names()
	g1.Union(g2)
	if !reflect.DeepEqual(g1.Names(), before) {
		t.Fatal("union with self changed vertex set")
	}

	a := New(testBase)
	a.AddVertex(pkg("x", false), KindDependency)
	b := New(testBase)
	b.AddVertex(pkg("y", false), KindPrimary)

	ab := a.Clone()
	ab.Union(b)
	ba := b.Clone()
	ba.Union(a)
	if !reflect.DeepEqual(ab.Names(), ba.Names()) {
		t.Fatalf("union not commutative on vertex sets: %v vs %v", ab.Names(), ba.Names())
	}
}

func TestUnionPrimaryKindWins(t *testing.T) {
	a := New(testBase)
	a.AddVertex(pkg("shared", false), KindDependency)
	b := New(testBase)
	b.AddVertex(pkg("shared", false), KindPrimary)
	a.Union(b)
	v, _ := a.Vertex("shared")
	if v.Kind != KindPrimary {
		t.Fatalf("kind = %v after union, want primary", v.Kind)
	}
	// But primary never downgrades.
	b2 := New(testBase)
	b2.AddVertex(pkg("shared", false), KindDependency)
	a.Union(b2)
	v, _ = a.Vertex("shared")
	if v.Kind != KindPrimary {
		t.Fatal("primary kind downgraded by union")
	}
}

func TestCloneIndependent(t *testing.T) {
	g := paperExample()
	c := g.Clone()
	c.AddVertex(pkg("extra", false), KindDependency)
	if g.HasVertex("extra") {
		t.Fatal("clone shares vertex map")
	}
	if c.NumEdges() != g.NumEdges() {
		t.Fatal("clone lost edges")
	}
}

func TestTotalSize(t *testing.T) {
	g := paperExample()
	if g.TotalSize() != int64(g.Len())*1000 {
		t.Fatalf("TotalSize = %d", g.TotalSize())
	}
}

func TestDOT(t *testing.T) {
	g := paperExample()
	dot := g.DOT("fig1a")
	for _, want := range []string{"digraph", `"mariadb" [shape=doubleoctagon]`,
		`"libc6" [shape=box]`, `"libc6" -> "perl-base"`} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
	// Deterministic.
	if dot != g.DOT("fig1a") {
		t.Fatal("DOT not deterministic")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	g := paperExample()
	data := g.Marshal()
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Base() != g.Base() {
		t.Fatalf("base = %v", got.Base())
	}
	if !reflect.DeepEqual(got.Names(), g.Names()) {
		t.Fatalf("names = %v", got.Names())
	}
	for _, n := range g.Names() {
		if !reflect.DeepEqual(got.Succ(n), g.Succ(n)) {
			t.Fatalf("Succ(%s) = %v, want %v", n, got.Succ(n), g.Succ(n))
		}
		gv, _ := g.Vertex(n)
		rv, _ := got.Vertex(n)
		if !reflect.DeepEqual(gv, rv) {
			t.Fatalf("vertex %s = %+v, want %+v", n, rv, gv)
		}
	}
	if !bytes.Equal(got.Marshal(), data) {
		t.Fatal("re-marshal differs")
	}
}

func TestUnmarshalRejectsCorrupt(t *testing.T) {
	if _, err := Unmarshal([]byte("junk")); err == nil {
		t.Fatal("accepted junk")
	}
	data := paperExample().Marshal()
	if _, err := Unmarshal(data[:len(data)-4]); err == nil {
		t.Fatal("accepted truncated graph")
	}
}

func TestKindString(t *testing.T) {
	if KindBase.String() != "base" || KindPrimary.String() != "primary" ||
		KindDependency.String() != "dependency" {
		t.Fatal("Kind strings wrong")
	}
	if Kind(9).String() != "kind(9)" {
		t.Fatal("unknown kind string wrong")
	}
}

// TestQuickSubgraphInvariant: for arbitrary package sets, subgraph
// vertices are always subsets, and base/primary subgraphs partition
// cleanly when dependency closures don't cross.
func TestQuickSubgraphInvariant(t *testing.T) {
	err := quick.Check(func(names []string, primariesIdx []byte) bool {
		uniq := map[string]bool{}
		var installed []pkgmeta.Package
		for i, raw := range names {
			n := "p" + sanitize(raw)
			if uniq[n] {
				continue
			}
			uniq[n] = true
			installed = append(installed, pkg(n, i%3 == 0))
		}
		var primaries []string
		for _, idx := range primariesIdx {
			if len(installed) > 0 {
				p := installed[int(idx)%len(installed)]
				if !p.Essential {
					primaries = append(primaries, p.Name)
				}
			}
		}
		g := Build(testBase, installed, primaries)
		bs, ps := g.BaseSubgraph(), g.PrimarySubgraph()
		for _, n := range bs.Names() {
			if !g.HasVertex(n) {
				return false
			}
			if v, _ := bs.Vertex(n); v.Kind != KindBase {
				return false
			}
		}
		for _, n := range ps.Names() {
			if !g.HasVertex(n) {
				return false
			}
		}
		return bs.Len()+len(g.Names()) >= g.Len() // sanity
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func sanitize(s string) string {
	var b strings.Builder
	for _, r := range s {
		if (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') {
			b.WriteRune(r)
		}
	}
	if b.Len() > 8 {
		return b.String()[:8]
	}
	return b.String()
}

// TestQuickMarshalRoundTrip over random graphs.
func TestQuickMarshalRoundTrip(t *testing.T) {
	err := quick.Check(func(n uint8, edges []uint16) bool {
		count := int(n%20) + 1
		g := New(testBase)
		for i := 0; i < count; i++ {
			g.AddVertex(pkg(nodeName(i), i%2 == 0), Kind(i%3))
		}
		for _, e := range edges {
			from := nodeName(int(e>>8) % count)
			to := nodeName(int(e&0xff) % count)
			g.AddEdge(from, to) //nolint:errcheck
		}
		got, err := Unmarshal(g.Marshal())
		if err != nil {
			return false
		}
		if !reflect.DeepEqual(got.Names(), g.Names()) {
			return false
		}
		for _, name := range g.Names() {
			if !reflect.DeepEqual(got.Succ(name), g.Succ(name)) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func nodeName(i int) string { return string(rune('a'+i%26)) + string(rune('0'+i/26)) }

func BenchmarkBuildGraph(b *testing.B) {
	installed := make([]pkgmeta.Package, 200)
	for i := range installed {
		deps := []string{}
		if i > 0 {
			deps = append(deps, "n"+itoa(i/2))
		}
		installed[i] = pkg("n"+itoa(i), i%4 == 0, deps...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(testBase, installed, []string{"n100", "n150"})
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var digits []byte
	for i > 0 {
		digits = append([]byte{byte('0' + i%10)}, digits...)
		i /= 10
	}
	return string(digits)
}
