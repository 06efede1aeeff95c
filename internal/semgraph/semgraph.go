// Package semgraph implements the VMI semantic graph of Sec. III-B: a
// directed (possibly cyclic) graph G_I = (V_I, E_I) whose vertices are the
// packages of a VMI — base-image packages, primary packages and dependency
// packages — and whose edges are package dependencies. The base image's
// attribute quadruple is carried on the graph itself; metrics that involve
// the base image (simBI, SimG, comp) read it from there.
//
// The package also provides the induced subgraph extractions used by
// Algorithms 1–3 (base-image subgraph, dependency closure, primary-package
// subgraph), graph union (master-graph construction), deterministic
// serialization for repository storage, and DOT export for inspection.
package semgraph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"

	"expelliarmus/internal/pkgmeta"
)

// Kind classifies a vertex within its VMI.
type Kind byte

const (
	// KindBase marks packages belonging to the base image BI.
	KindBase Kind = iota
	// KindPrimary marks user-requested primary packages (PS).
	KindPrimary
	// KindDependency marks dependency packages (DS).
	KindDependency
)

func (k Kind) String() string {
	switch k {
	case KindBase:
		return "base"
	case KindPrimary:
		return "primary"
	case KindDependency:
		return "dependency"
	default:
		return fmt.Sprintf("kind(%d)", byte(k))
	}
}

// Vertex is one package vertex.
type Vertex struct {
	Pkg  pkgmeta.Package
	Kind Kind
}

// Graph is a VMI semantic graph. Vertices are keyed by package name.
// Graph is not safe for concurrent mutation.
type Graph struct {
	base     pkgmeta.BaseAttrs
	vertices map[string]*Vertex
	succ     map[string]map[string]bool
}

// New returns an empty graph for a base image with the given attributes.
func New(base pkgmeta.BaseAttrs) *Graph {
	return &Graph{
		base:     base,
		vertices: make(map[string]*Vertex),
		succ:     make(map[string]map[string]bool),
	}
}

// Base returns the base-image attribute quadruple attrs(BI).
func (g *Graph) Base() pkgmeta.BaseAttrs { return g.base }

// Len returns the number of vertices.
func (g *Graph) Len() int { return len(g.vertices) }

// AddVertex inserts or replaces a package vertex.
func (g *Graph) AddVertex(p pkgmeta.Package, kind Kind) {
	g.vertices[p.Name] = &Vertex{Pkg: p.Clone(), Kind: kind}
	if g.succ[p.Name] == nil {
		g.succ[p.Name] = make(map[string]bool)
	}
}

// AddEdge inserts a dependency edge from → to. Both vertices must exist.
func (g *Graph) AddEdge(from, to string) error {
	if _, ok := g.vertices[from]; !ok {
		return fmt.Errorf("semgraph: edge from unknown vertex %q", from)
	}
	if _, ok := g.vertices[to]; !ok {
		return fmt.Errorf("semgraph: edge to unknown vertex %q", to)
	}
	g.succ[from][to] = true
	return nil
}

// HasVertex reports whether the named package is a vertex.
func (g *Graph) HasVertex(name string) bool {
	_, ok := g.vertices[name]
	return ok
}

// Vertex returns the named vertex.
func (g *Graph) Vertex(name string) (Vertex, bool) {
	v, ok := g.vertices[name]
	if !ok {
		return Vertex{}, false
	}
	return *v, true
}

// BaseVertex returns the named vertex if it is a base vertex: the answer
// BaseSubgraph().Vertex(name) gives, without extracting the subgraph.
func (g *Graph) BaseVertex(name string) (Vertex, bool) {
	v, ok := g.vertices[name]
	if !ok || v.Kind != KindBase {
		return Vertex{}, false
	}
	return *v, true
}

// Names returns all vertex names in sorted order.
func (g *Graph) Names() []string {
	out := make([]string, 0, len(g.vertices))
	for n := range g.vertices {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Vertices returns all vertices sorted by name.
func (g *Graph) Vertices() []Vertex {
	names := g.Names()
	out := make([]Vertex, len(names))
	for i, n := range names {
		out[i] = *g.vertices[n]
	}
	return out
}

// Succ returns the successors (dependencies) of a vertex, sorted.
func (g *Graph) Succ(name string) []string {
	var out []string
	for to := range g.succ[name] {
		out = append(out, to)
	}
	sort.Strings(out)
	return out
}

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int {
	n := 0
	for _, m := range g.succ {
		n += len(m)
	}
	return n
}

// PrimaryNames returns the names of primary vertices, sorted.
func (g *Graph) PrimaryNames() []string {
	var out []string
	for n, v := range g.vertices {
		if v.Kind == KindPrimary {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// Build constructs the semantic graph of a VMI from its installed package
// set and declared primaries: essential packages become base vertices,
// primaries become primary vertices, everything else dependency vertices.
// Dependency edges are added for every dependency present in the set.
func Build(base pkgmeta.BaseAttrs, installed []pkgmeta.Package, primaries []string) *Graph {
	isPrimary := make(map[string]bool, len(primaries))
	for _, p := range primaries {
		isPrimary[p] = true
	}
	g := New(base)
	for _, p := range installed {
		kind := KindDependency
		switch {
		case isPrimary[p.Name]:
			kind = KindPrimary
		case p.Essential:
			kind = KindBase
		}
		g.AddVertex(p, kind)
	}
	for _, p := range installed {
		for _, d := range p.Depends {
			if g.HasVertex(d) {
				g.AddEdge(p.Name, d) //nolint:errcheck // both vertices exist
			}
		}
	}
	return g
}

// induced returns the induced subgraph over the given vertex names.
func (g *Graph) induced(names map[string]bool) *Graph {
	out := New(g.base)
	for n := range names {
		if v, ok := g.vertices[n]; ok {
			out.AddVertex(v.Pkg, v.Kind)
		}
	}
	for n := range names {
		for to := range g.succ[n] {
			if names[to] {
				out.AddEdge(n, to) //nolint:errcheck
			}
		}
	}
	return out
}

// BaseSubgraph extracts G_I[BI]: the induced subgraph of base vertices.
func (g *Graph) BaseSubgraph() *Graph {
	names := map[string]bool{}
	for n, v := range g.vertices {
		if v.Kind == KindBase {
			names[n] = true
		}
	}
	return g.induced(names)
}

// Closure extracts the induced subgraph over roots and their transitive
// dependency closure within the graph (extractSubGraph of Algorithms 1
// and 2). Cycles are followed once; a root that is not a vertex adds
// nothing.
func (g *Graph) Closure(roots ...string) *Graph {
	names := make(map[string]bool, len(roots))
	stack := append([]string(nil), roots...)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if names[n] || g.vertices[n] == nil {
			continue
		}
		names[n] = true
		for to := range g.succ[n] {
			stack = append(stack, to)
		}
	}
	return g.induced(names)
}

// PrimarySubgraph extracts G_I[PS]: the closure of the primary packages
// (including homonyms of base packages, which the compatibility metric
// inspects).
func (g *Graph) PrimarySubgraph() *Graph { return g.Closure(g.PrimaryNames()...) }

// Union merges other into g: vertices are added (an existing vertex keeps
// its current kind unless the incoming one is KindPrimary, which wins so
// master graphs remember what is primary somewhere), edges are unioned.
func (g *Graph) Union(other *Graph) {
	for _, v := range other.Vertices() {
		if cur, ok := g.vertices[v.Pkg.Name]; ok {
			if v.Kind == KindPrimary && cur.Kind != KindPrimary {
				cur.Kind = KindPrimary
			}
			continue
		}
		g.AddVertex(v.Pkg, v.Kind)
	}
	for _, from := range other.Names() {
		for _, to := range other.Succ(from) {
			if g.HasVertex(from) && g.HasVertex(to) {
				g.AddEdge(from, to) //nolint:errcheck
			}
		}
	}
}

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	out := New(g.base)
	for _, v := range g.Vertices() {
		out.AddVertex(v.Pkg, v.Kind)
	}
	for from, tos := range g.succ {
		for to := range tos {
			out.AddEdge(from, to) //nolint:errcheck
		}
	}
	return out
}

// TotalSize returns the summed InstalledSize over all vertices.
func (g *Graph) TotalSize() int64 {
	var total int64
	for _, v := range g.vertices {
		total += v.Pkg.InstalledSize
	}
	return total
}

// DOT renders the graph in Graphviz DOT format (deterministic output).
func (g *Graph) DOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", name)
	fmt.Fprintf(&b, "  label=%q;\n", g.base.String())
	for _, v := range g.Vertices() {
		shape := "ellipse"
		switch v.Kind {
		case KindBase:
			shape = "box"
		case KindPrimary:
			shape = "doubleoctagon"
		}
		fmt.Fprintf(&b, "  %q [shape=%s];\n", v.Pkg.Name, shape)
	}
	for _, from := range g.Names() {
		for _, to := range g.Succ(from) {
			fmt.Fprintf(&b, "  %q -> %q;\n", from, to)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// --- serialization ---

var marshalMagic = []byte("SGRF1\n")

// Marshal encodes the graph deterministically.
func (g *Graph) Marshal() []byte {
	buf := append([]byte(nil), marshalMagic...)
	buf = appendField(buf, g.base.Type)
	buf = appendField(buf, g.base.Distro)
	buf = appendField(buf, g.base.Version)
	buf = appendField(buf, g.base.Arch)
	names := g.Names()
	scratch := strconv.AppendInt(nil, int64(len(names)), 10)
	buf = appendField(buf, scratch)
	for _, n := range names {
		v := g.vertices[n]
		scratch = pkgmeta.AppendControl(scratch[:0], v.Pkg)
		buf = appendField(buf, scratch)
		buf = append(buf, byte(v.Kind))
	}
	var succ []string
	for _, n := range names {
		succ = succ[:0]
		for to := range g.succ[n] {
			succ = append(succ, to)
		}
		slices.Sort(succ)
		scratch = strconv.AppendInt(scratch[:0], int64(len(succ)), 10)
		buf = appendField(buf, scratch)
		for _, to := range succ {
			buf = appendField(buf, to)
		}
	}
	return buf
}

// appendField appends s to buf behind its length as a uvarint.
func appendField[S string | []byte](buf []byte, s S) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// Unmarshal decodes a graph produced by Marshal.
func Unmarshal(data []byte) (*Graph, error) {
	r := bytes.NewReader(data)
	magic := make([]byte, len(marshalMagic))
	if _, err := io.ReadFull(r, magic); err != nil || !bytes.Equal(magic, marshalMagic) {
		return nil, fmt.Errorf("semgraph: bad magic")
	}
	readStr := func() (string, error) {
		n, err := binary.ReadUvarint(r)
		if err != nil {
			return "", err
		}
		if n > uint64(r.Len()) {
			return "", fmt.Errorf("semgraph: string length %d exceeds remaining %d", n, r.Len())
		}
		b := make([]byte, n)
		if n > 0 {
			if _, err := io.ReadFull(r, b); err != nil {
				return "", err
			}
		}
		return string(b), nil
	}
	var base pkgmeta.BaseAttrs
	var err error
	if base.Type, err = readStr(); err != nil {
		return nil, err
	}
	if base.Distro, err = readStr(); err != nil {
		return nil, err
	}
	if base.Version, err = readStr(); err != nil {
		return nil, err
	}
	if base.Arch, err = readStr(); err != nil {
		return nil, err
	}
	g := New(base)
	countStr, err := readStr()
	if err != nil {
		return nil, err
	}
	var count int
	if _, err := fmt.Sscanf(countStr, "%d", &count); err != nil {
		return nil, fmt.Errorf("semgraph: bad vertex count %q", countStr)
	}
	names := make([]string, 0, count)
	for i := 0; i < count; i++ {
		control, err := readStr()
		if err != nil {
			return nil, err
		}
		p, err := pkgmeta.ParseControl(control)
		if err != nil {
			return nil, err
		}
		kind, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		g.AddVertex(p, Kind(kind))
		names = append(names, p.Name)
	}
	for _, n := range names {
		cntStr, err := readStr()
		if err != nil {
			return nil, err
		}
		var edges int
		if _, err := fmt.Sscanf(cntStr, "%d", &edges); err != nil {
			return nil, fmt.Errorf("semgraph: bad edge count %q", cntStr)
		}
		for j := 0; j < edges; j++ {
			to, err := readStr()
			if err != nil {
				return nil, err
			}
			if err := g.AddEdge(n, to); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}
