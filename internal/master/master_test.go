package master

import (
	"errors"
	"reflect"
	"testing"

	"expelliarmus/internal/pkgmeta"
	"expelliarmus/internal/semgraph"
	"expelliarmus/internal/similarity"
)

var base = pkgmeta.BaseAttrs{Type: "linux", Distro: "ubuntu", Version: "16.04", Arch: "x86_64"}

func pkg(name string, essential bool, deps ...string) pkgmeta.Package {
	return pkgmeta.Package{
		Name: name, Version: "1.0", Arch: "amd64", Distro: "ubuntu",
		InstalledSize: 100, Depends: deps, Essential: essential,
	}
}

func baseSub() *semgraph.Graph {
	return semgraph.Build(base, []pkgmeta.Package{
		pkg("libc6", true, "perl-base"),
		pkg("perl-base", true, "libc6"),
		pkg("bash", true, "libc6"),
	}, nil)
}

func redisSub() *semgraph.Graph {
	g := semgraph.New(base)
	g.AddVertex(pkg("redis", false, "libc6"), semgraph.KindPrimary)
	g.AddVertex(pkg("libc6", true, "perl-base"), semgraph.KindBase)
	g.AddEdge("redis", "libc6")
	return g
}

func nginxSub() *semgraph.Graph {
	g := semgraph.New(base)
	g.AddVertex(pkg("nginx", false), semgraph.KindPrimary)
	g.AddVertex(pkg("nginx-common", false), semgraph.KindDependency)
	g.AddEdge("nginx", "nginx-common")
	return g
}

func TestNewAndAdd(t *testing.T) {
	m := New("base-1", baseSub())
	if m.BaseID != "base-1" || m.Attrs() != base {
		t.Fatalf("master metadata: %s %v", m.BaseID, m.Attrs())
	}
	if err := m.AddPrimarySubgraph(redisSub()); err != nil {
		t.Fatal(err)
	}
	if err := m.AddPrimarySubgraph(nginxSub()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.PrimaryNames(), []string{"nginx", "redis"}) {
		t.Fatalf("primaries = %v", m.PrimaryNames())
	}
	// Base subgraph unchanged by clustering.
	if got := m.BaseSubgraph().Names(); !reflect.DeepEqual(got, []string{"bash", "libc6", "perl-base"}) {
		t.Fatalf("base subgraph = %v", got)
	}
}

func TestAddIncompatibleRejected(t *testing.T) {
	m := New("base-1", baseSub())
	bad := semgraph.New(base)
	skewed := pkg("libc6", true)
	skewed.Version = "9.9"
	bad.AddVertex(pkg("app", false, "libc6"), semgraph.KindPrimary)
	bad.AddVertex(skewed, semgraph.KindBase)
	bad.AddEdge("app", "libc6")
	if err := m.AddPrimarySubgraph(bad); err == nil {
		t.Fatal("incompatible subgraph accepted")
	}
}

func TestPrimarySubgraphExtraction(t *testing.T) {
	m := New("base-1", baseSub())
	m.AddPrimarySubgraph(redisSub())
	m.AddPrimarySubgraph(nginxSub())

	sub, err := m.PrimarySubgraph("redis")
	if err != nil {
		t.Fatal(err)
	}
	// redis closure within the master: redis, libc6, perl-base (via cycle
	// edge from libc6).
	if want := []string{"libc6", "perl-base", "redis"}; !reflect.DeepEqual(sub.Names(), want) {
		t.Fatalf("extraction = %v, want %v", sub.Names(), want)
	}
	if !reflect.DeepEqual(sub.Succ("perl-base"), []string{"libc6"}) {
		t.Fatalf("extraction lost the cycle edge: perl-base -> %v", sub.Succ("perl-base"))
	}
	if _, err := m.PrimarySubgraph("bash"); err == nil {
		t.Fatal("extracted non-primary")
	}
	if _, err := m.PrimarySubgraph("ghost"); err == nil {
		t.Fatal("extracted missing vertex")
	}
}

func TestSimilarityAgainstMaster(t *testing.T) {
	m := New("base-1", baseSub())
	m.AddPrimarySubgraph(redisSub())
	// A graph equal to the master's content scores 1.
	self := m.G.Clone()
	if got := m.Similarity(self); got < 0.999 {
		t.Fatalf("self similarity = %v", got)
	}
	// A fresh upload with one extra package scores below 1 but high.
	g := m.G.Clone()
	g.AddVertex(pkg("extra", false), semgraph.KindDependency)
	sim := m.Similarity(g)
	if sim >= 1 || sim < 0.5 {
		t.Fatalf("similarity with extra package = %v", sim)
	}
}

func TestMerge(t *testing.T) {
	m1 := New("base-1", baseSub())
	m1.AddPrimarySubgraph(redisSub())
	m2 := New("base-2", baseSub())
	m2.AddPrimarySubgraph(nginxSub())

	if err := m1.Merge(m2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m1.PrimaryNames(), []string{"nginx", "redis"}) {
		t.Fatalf("after merge primaries = %v", m1.PrimaryNames())
	}
	if !m1.G.HasVertex("nginx-common") {
		t.Fatal("merge dropped dependency vertex")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	m := New("base-xyz", baseSub())
	m.AddPrimarySubgraph(redisSub())
	got, err := Unmarshal(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.BaseID != "base-xyz" {
		t.Fatalf("BaseID = %q", got.BaseID)
	}
	if !reflect.DeepEqual(got.G.Names(), m.G.Names()) {
		t.Fatalf("names = %v", got.G.Names())
	}
	if !reflect.DeepEqual(got.PrimaryNames(), m.PrimaryNames()) {
		t.Fatalf("primaries = %v", got.PrimaryNames())
	}
}

func TestUnmarshalRejectsCorrupt(t *testing.T) {
	if _, err := Unmarshal([]byte{}); err == nil {
		t.Fatal("accepted empty")
	}
	if _, err := Unmarshal([]byte{0, 99}); err == nil {
		t.Fatal("accepted truncated id")
	}
}

// outcomeBySubgraph is the reference for AddPrimarySubgraph's outcome:
// compatibility against the extracted base subgraph, then a version
// conflict against any master vertex.
func outcomeBySubgraph(m *Graph, ps *semgraph.Graph) string {
	if !similarity.Compatible(m.BaseSubgraph(), ps) {
		return "incompatible"
	}
	for _, v := range ps.Vertices() {
		if cur, ok := m.G.Vertex(v.Pkg.Name); ok && cur.Pkg.Ref() != v.Pkg.Ref() {
			return "conflict"
		}
	}
	return "ok"
}

func outcome(err error) string {
	var conflict *ErrVersionConflict
	switch {
	case err == nil:
		return "ok"
	case errors.As(err, &conflict):
		return "conflict"
	default:
		return "incompatible"
	}
}

// TestAddPrimarySubgraphMatchesBaseSubgraph plants the cases where looking
// a package up among the master's base vertices could diverge from
// membership in the extracted base subgraph: homonyms of base, dependency
// and promoted-to-primary vertices, and a subgraph that is both
// incompatible and conflicting.
func TestAddPrimarySubgraphMatchesBaseSubgraph(t *testing.T) {
	build := func(name, version, arch string, deps ...string) pkgmeta.Package {
		p := pkg(name, false, deps...)
		p.Version, p.Arch = version, arch
		return p
	}
	// sub is a primary subgraph: the primary plus its dependencies.
	sub := func(primary pkgmeta.Package, deps ...pkgmeta.Package) *semgraph.Graph {
		g := semgraph.New(base)
		g.AddVertex(primary, semgraph.KindPrimary)
		for _, d := range deps {
			g.AddVertex(d, semgraph.KindDependency)
			g.AddEdge(primary.Name, d.Name)
		}
		return g
	}
	// The master holds base vertices (libc6, perl-base), dependency
	// vertices (nginx-common, ca-certificates) and a base package a VMI
	// declared primary (bash).
	newMaster := func() *Graph {
		m := New("base-1", baseSub())
		for _, ps := range []*semgraph.Graph{
			redisSub(), nginxSub(),
			sub(pkg("curl", false, "ca-certificates"), pkg("ca-certificates", false)),
			sub(pkg("bash", true)),
		} {
			if err := m.AddPrimarySubgraph(ps); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	cases := []struct {
		name string
		ps   *semgraph.Graph
		want string
	}{
		{"reclustered primary", redisSub(), "ok"},
		{"new primary on a base package", sub(pkg("app", false, "libc6"), pkg("libc6", true)), "ok"},
		{"base homonym at another version", sub(pkg("app", false, "libc6"), build("libc6", "9.9", "amd64")), "incompatible"},
		{"compatible base homonym of another build", sub(pkg("app", false, "libc6"), build("libc6", "1.0", "all")), "conflict"},
		{"dependency at another version", sub(pkg("web", false, "nginx-common"), build("nginx-common", "2.0", "amd64")), "conflict"},
		{"promoted base package at another version", sub(pkg("tool", false, "bash"), build("bash", "2.0", "amd64")), "conflict"},
		// ca-certificates sorts before libc6: the conflict is met first,
		// the incompatibility is still what is reported.
		{"incompatible and conflicting", sub(pkg("app", false, "ca-certificates", "libc6"),
			build("ca-certificates", "2.0", "amd64"), build("libc6", "9.9", "amd64")), "incompatible"},
	}
	for _, c := range cases {
		m := newMaster()
		want := outcomeBySubgraph(m, c.ps)
		if want != c.want {
			t.Fatalf("%s: subgraph computation gives %s, case expects %s", c.name, want, c.want)
		}
		if got := outcome(m.AddPrimarySubgraph(c.ps)); got != want {
			t.Errorf("%s: AddPrimarySubgraph gives %s, base subgraph gives %s", c.name, got, want)
		}
	}
}
