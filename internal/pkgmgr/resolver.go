package pkgmgr

import (
	"fmt"
	"sort"

	"expelliarmus/internal/pkgmeta"
)

// Universe resolves package names to metadata: the package catalog during
// image building, or the installed set during closure queries.
type Universe interface {
	Lookup(name string) (pkgmeta.Package, bool)
}

// Closure returns the transitive dependency closure of roots (including
// the roots), sorted by name. Cycles are handled naturally; a missing
// dependency is an error.
func Closure(u Universe, roots []string) ([]string, error) {
	seen := map[string]bool{}
	queue := append([]string(nil), roots...)
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		if seen[name] {
			continue
		}
		p, ok := u.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("pkgmgr: unresolvable dependency %q", name)
		}
		seen[name] = true
		queue = append(queue, p.Depends...)
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// InstallOrder computes an installation order for the given package set:
// strongly connected components (dependency cycles, which per Sec. III-B
// "always need to be provided and installed together") are grouped, and
// groups are emitted dependencies-first. Only edges within the set are
// considered, so callers typically pass a Closure result.
func InstallOrder(u Universe, names []string) ([][]string, error) {
	inSet := map[string]bool{}
	for _, n := range names {
		inSet[n] = true
	}
	// Deterministic vertex order.
	vertices := append([]string(nil), names...)
	sort.Strings(vertices)

	adj := map[string][]string{}
	for _, n := range vertices {
		p, ok := u.Lookup(n)
		if !ok {
			return nil, fmt.Errorf("pkgmgr: unknown package %q", n)
		}
		var deps []string
		for _, d := range p.Depends {
			if inSet[d] {
				deps = append(deps, d)
			}
		}
		sort.Strings(deps)
		adj[n] = deps
	}

	// Tarjan's strongly connected components. Components are emitted in
	// reverse topological order of the condensation — i.e. dependencies
	// first — which is exactly the installation order.
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var order [][]string
	var dfs func(n string)
	dfs = func(n string) {
		index[n] = len(index)
		low[n] = index[n]
		stack = append(stack, n)
		onStack[n] = true
		for _, d := range adj[n] {
			if _, visited := index[d]; !visited {
				dfs(d)
				low[n] = min(low[n], low[d])
			} else if onStack[d] {
				low[n] = min(low[n], index[d])
			}
		}
		if low[n] != index[n] {
			return
		}
		var comp []string
		for {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			onStack[top] = false
			comp = append(comp, top)
			if top == n {
				break
			}
		}
		sort.Strings(comp)
		order = append(order, comp)
	}
	for _, n := range vertices {
		if _, visited := index[n]; !visited {
			dfs(n)
		}
	}
	return order, nil
}

// MapUniverse is a Universe backed by a map, convenient for tests and
// composed catalogs.
type MapUniverse map[string]pkgmeta.Package

// Lookup implements Universe.
func (m MapUniverse) Lookup(name string) (pkgmeta.Package, bool) {
	p, ok := m[name]
	return p, ok
}
