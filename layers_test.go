package expelliarmus

import (
	"os/exec"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestImportLayers pins the direction of the module's import arrows (the
// paper's Fig. 2: the user-facing interface on one side, the repository
// behind it on the other). For each row it takes the package's transitive
// closure of module-internal imports from `go list` and requires it to
// stay inside the allowed set, or outside the forbidden one — so a
// feature cannot quietly re-link the storage engines into the client, or
// the protocol into the repository.
func TestImportLayers(t *testing.T) {
	const internal = "expelliarmus/internal/"
	image := []string{"api", "chunkpool", "fstree", "pkgmeta", "vdisk", "vmi"}
	rows := []struct {
		pkg       string
		allowed   []string // the whole closure must lie in here (nil: unchecked)
		forbidden []string // none of these may be reached
	}{
		{pkg: "api", allowed: []string{}},
		{pkg: "wire", allowed: image},
		{pkg: "client", allowed: append([]string{"wire"}, image...)},
		{pkg: "blobstore", allowed: []string{"api", "chunkpool"}},
		{pkg: "metawal", allowed: []string{"api", "atomicfile", "metadb", "recframe"}},
		{pkg: "vmirepo", forbidden: []string{"wire", "client", "server"}},
		{pkg: "core", forbidden: []string{"wire", "client", "server"}},
	}

	out, err := exec.Command("go", "list", "-f", `{{.ImportPath}} {{join .Deps " "}}`, "./internal/...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	closure := map[string][]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		fields := strings.Fields(line)
		var deps []string
		for _, d := range fields[1:] {
			if strings.HasPrefix(d, internal) {
				deps = append(deps, strings.TrimPrefix(d, internal))
			}
		}
		sort.Strings(deps)
		closure[strings.TrimPrefix(fields[0], internal)] = deps
	}

	for _, row := range rows {
		deps, ok := closure[row.pkg]
		if !ok {
			t.Errorf("internal/%s: no such package", row.pkg)
			continue
		}
		var outside, above []string
		for _, d := range deps {
			if row.allowed != nil && !slices.Contains(row.allowed, d) {
				outside = append(outside, d)
			}
			if slices.Contains(row.forbidden, d) {
				above = append(above, d)
			}
		}
		if len(outside) > 0 {
			t.Errorf("internal/%s reaches %v; its allowed closure is %v", row.pkg, outside, row.allowed)
		}
		if len(above) > 0 {
			t.Errorf("internal/%s reaches %v, which sit above it", row.pkg, above)
		}
	}
}
