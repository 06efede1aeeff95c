// Package master implements the VMI master graph of Sec. III-H: one graph
// per stored base image that unions the base-image subgraph with the
// primary-package subgraphs of every VMI clustered on that base. Its
// purpose is to "reduce the similarity computation overhead between
// multiple VMI semantic graphs with one single master graph comparison".
package master

import (
	"fmt"
	"sort"

	"expelliarmus/internal/pkgmeta"
	"expelliarmus/internal/semgraph"
	"expelliarmus/internal/similarity"
)

// Graph is a master graph: the union graph plus the identity of the base
// image it clusters on.
type Graph struct {
	// BaseID identifies the stored base image this master belongs to.
	BaseID string
	// G is the union of the base-image subgraph and all clustered
	// primary-package subgraphs.
	G *semgraph.Graph
}

// New creates a master graph from a base-image subgraph.
func New(baseID string, baseSub *semgraph.Graph) *Graph {
	return &Graph{BaseID: baseID, G: baseSub.Clone()}
}

// Clone returns a deep copy, which the caller may modify.
func (m *Graph) Clone() *Graph {
	return &Graph{BaseID: m.BaseID, G: m.G.Clone()}
}

// Attrs returns the base attribute quadruple (T,D,V,A) keying the master.
func (m *Graph) Attrs() pkgmeta.BaseAttrs { return m.G.Base() }

// ErrVersionConflict reports that a primary subgraph carries a different
// build of a package the master already clusters. The paper's master graph
// keys vertices by the pkg attribute, so it cannot represent two versions
// of one package on the same base image — a design limitation this
// reproduction surfaces as an explicit error (Sec. III-H keys a master's
// vertices by package name alone).
type ErrVersionConflict struct {
	BaseID   string
	Pkg      string
	Existing string // stored Ref
	Incoming string // conflicting Ref
}

func (e *ErrVersionConflict) Error() string {
	return fmt.Sprintf("master %s: version conflict for %s: %s already clustered, got %s",
		e.BaseID, e.Pkg, e.Existing, e.Incoming)
}

// AddPrimarySubgraph clusters a VMI's primary-package subgraph into the
// master. Per Sec. III-H the subgraph must be semantically compatible with
// the master's base image subgraph, and no package may arrive in a
// different version than one already clustered (*ErrVersionConflict).
// Incompatibility is reported first. Compatibility looks each of ps's
// packages up among the master's base vertices, so it equals
// similarity.Compatible(m.BaseSubgraph(), ps) without building that
// subgraph; a package clustered as a dependency is not a base package.
func (m *Graph) AddPrimarySubgraph(ps *semgraph.Graph) error {
	if similarity.CompWith(m.G.BaseVertex, ps) != 1 {
		return fmt.Errorf("master %s: primary subgraph incompatible with base", m.BaseID)
	}
	for _, v := range ps.Vertices() {
		if cur, ok := m.G.Vertex(v.Pkg.Name); ok && cur.Pkg.Ref() != v.Pkg.Ref() {
			return &ErrVersionConflict{
				BaseID:   m.BaseID,
				Pkg:      v.Pkg.Name,
				Existing: cur.Pkg.Ref(),
				Incoming: v.Pkg.Ref(),
			}
		}
	}
	m.G.Union(ps)
	return nil
}

// BaseSubgraph returns the base-image part of the master.
func (m *Graph) BaseSubgraph() *semgraph.Graph { return m.G.BaseSubgraph() }

// PrimaryNames lists the primary packages clustered in the master.
func (m *Graph) PrimaryNames() []string { return m.G.PrimaryNames() }

// PrimarySubgraph extracts the subgraph of clustered primary packages:
// their closure within the master (Algorithm 1 line 25 / Algorithm 2 line
// 9, extractSubGraph(GM, P)). Each name must be a vertex of the master,
// and a primary one.
func (m *Graph) PrimarySubgraph(primaries ...string) (*semgraph.Graph, error) {
	for _, p := range primaries {
		v, ok := m.G.Vertex(p)
		if !ok {
			return nil, fmt.Errorf("master %s: no vertex %q", m.BaseID, p)
		}
		if v.Kind != semgraph.KindPrimary {
			return nil, fmt.Errorf("master %s: %q is not a primary package", m.BaseID, p)
		}
	}
	return m.G.Closure(primaries...), nil
}

// Similarity computes SimG between an uploaded VMI graph and the master.
func (m *Graph) Similarity(g *semgraph.Graph) float64 {
	return similarity.SimG(g, m.G)
}

// Merge folds another master's clustered primary subgraphs into this one
// (Algorithm 1 lines 22–26, replacing an obsolete base image).
func (m *Graph) Merge(other *Graph) error {
	names := other.PrimaryNames()
	sort.Strings(names)
	for _, p := range names {
		sub, err := other.PrimarySubgraph(p)
		if err != nil {
			return err
		}
		if err := m.AddPrimarySubgraph(sub); err != nil {
			return err
		}
	}
	return nil
}

// Marshal serialises the master graph.
func (m *Graph) Marshal() []byte {
	head := []byte(m.BaseID)
	body := m.G.Marshal()
	out := make([]byte, 0, 2+len(head)+len(body))
	out = append(out, byte(len(head)>>8), byte(len(head)))
	out = append(out, head...)
	out = append(out, body...)
	return out
}

// Unmarshal decodes a master graph.
func Unmarshal(data []byte) (*Graph, error) {
	if len(data) < 2 {
		return nil, fmt.Errorf("master: truncated")
	}
	n := int(data[0])<<8 | int(data[1])
	if len(data) < 2+n {
		return nil, fmt.Errorf("master: truncated base id")
	}
	g, err := semgraph.Unmarshal(data[2+n:])
	if err != nil {
		return nil, err
	}
	return &Graph{BaseID: string(data[2 : 2+n]), G: g}, nil
}
