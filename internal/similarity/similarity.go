// Package similarity implements the semantic metrics of Sec. III of the
// paper: per-package similarity simP over the attribute quadruple, base
// image similarity simBI, size-weighted package similarity simsize, the
// Jaccard-style VMI graph similarity SimG, and the semantic compatibility
// predicate comp used by base-image selection and VMI assembly.
//
// Where the paper leaves the exact attribute-matching function open, we
// use multiplicative attribute agreement: name mismatch gives 0; same name
// scores the product of distro equality, version similarity (1 for equal,
// 1/2 for equal major version, 1/4 otherwise) and architecture
// compatibility (equal or either side "all", per Sec. III-C's portability
// rule). This preserves the properties the algorithms rely on: simP = 1
// exactly for semantically identical packages, symmetric, and in [0,1].
package similarity

import (
	"strings"

	"expelliarmus/internal/pkgmeta"
	"expelliarmus/internal/semgraph"
)

// VersionSim scores version agreement: 1 for identical versions, 0.5 for
// matching major components, 0.25 otherwise.
func VersionSim(a, b string) float64 {
	if a == b {
		return 1
	}
	if major(a) == major(b) {
		return 0.5
	}
	return 0.25
}

func major(v string) string {
	if i := strings.IndexAny(v, ".-+~"); i >= 0 {
		return v[:i]
	}
	return v
}

// ArchCompatible reports architecture compatibility: equal values, or
// either side the portable "all".
func ArchCompatible(a, b string) bool {
	return a == b || a == pkgmeta.ArchAll || b == pkgmeta.ArchAll
}

// SimP is the package similarity: zero when the pkg (name) attributes
// differ, otherwise the product of distro, version and architecture
// agreement. SimP is symmetric and SimP(p,p) = 1.
func SimP(p1, p2 pkgmeta.Package) float64 {
	if p1.Name != p2.Name {
		return 0
	}
	s := 1.0
	if p1.Distro != p2.Distro {
		s *= 0.5
	}
	s *= VersionSim(p1.Version, p2.Version)
	if !ArchCompatible(p1.Arch, p2.Arch) {
		return 0
	}
	return s
}

// SimBI is the base-image similarity over the attribute quadruple
// (type, distro, ver, arch). Differing type, distro or arch yield 0;
// version contributes VersionSim. SimBI = 1 means the quadruples agree
// exactly, the condition Algorithm 2 requires of replacement candidates.
func SimBI(a, b pkgmeta.BaseAttrs) float64 {
	if a.Type != b.Type || a.Distro != b.Distro || a.Arch != b.Arch {
		return 0
	}
	return VersionSim(a.Version, b.Version)
}

// SimSize is the normalised size weight of a matched package pair: the
// larger of the two installed sizes divided by the largest package size in
// the union of both VMIs (Sec. III-F).
func SimSize(p1, p2 pkgmeta.Package, maxAll int64) float64 {
	if maxAll <= 0 {
		return 0
	}
	m := p1.InstalledSize
	if p2.InstalledSize > m {
		m = p2.InstalledSize
	}
	return float64(m) / float64(maxAll)
}

// SimG computes the VMI semantic similarity between two graphs: the
// base-image similarity multiplied by the Jaccard-style (intersection over
// union) ratio of size-weighted package similarities. Packages are matched
// by their pkg attribute (name); the denominator runs over the union of
// both package sets, so adding unrelated packages to either VMI strictly
// lowers similarity.
func SimG(g1, g2 *semgraph.Graph) float64 {
	base := SimBI(g1.Base(), g2.Base())
	if base == 0 {
		return 0
	}
	if g1.Len() == 0 && g2.Len() == 0 {
		return base
	}
	// Largest installed size across the union normalises the weights.
	var maxAll int64
	for _, v := range g1.Vertices() {
		if v.Pkg.InstalledSize > maxAll {
			maxAll = v.Pkg.InstalledSize
		}
	}
	for _, v := range g2.Vertices() {
		if v.Pkg.InstalledSize > maxAll {
			maxAll = v.Pkg.InstalledSize
		}
	}
	if maxAll == 0 {
		maxAll = 1
	}

	var num, den float64
	seen := map[string]bool{}
	for _, v1 := range g1.Vertices() {
		if v2, ok := g2.Vertex(v1.Pkg.Name); ok {
			w := SimSize(v1.Pkg, v2.Pkg, maxAll)
			num += w * SimP(v1.Pkg, v2.Pkg)
			den += w
		} else {
			den += SimSize(v1.Pkg, v1.Pkg, maxAll)
		}
		seen[v1.Pkg.Name] = true
	}
	for _, v2 := range g2.Vertices() {
		if !seen[v2.Pkg.Name] {
			den += SimSize(v2.Pkg, v2.Pkg, maxAll)
		}
	}
	if den == 0 {
		return 0
	}
	return base * num / den
}

// Comp is the semantic compatibility between a base-image subgraph and a
// primary-package subgraph (Sec. III-G): the product of SimP over all
// vertex pairs sharing a pkg attribute. A value of 1 means every package
// the primary subgraph expects from the base is present in a semantically
// identical version — "the primary packages can be installed and used
// together with the base image". An empty intersection is vacuously
// compatible.
func Comp(baseSub, primarySub *semgraph.Graph) float64 {
	return CompWith(baseSub.Vertex, primarySub)
}

// CompWith is Comp with the base-image subgraph given as a vertex lookup,
// so a caller holding a larger graph can name its base vertices (e.g.
// semgraph's BaseVertex on a master) without extracting G[BI].
func CompWith(base func(name string) (semgraph.Vertex, bool), primarySub *semgraph.Graph) float64 {
	prod := 1.0
	for _, v := range primarySub.Vertices() {
		if bv, ok := base(v.Pkg.Name); ok {
			prod *= SimP(bv.Pkg, v.Pkg)
		}
	}
	return prod
}

// Compatible reports Comp == 1.
func Compatible(baseSub, primarySub *semgraph.Graph) bool {
	return Comp(baseSub, primarySub) == 1
}
