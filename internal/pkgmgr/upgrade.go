package pkgmgr

import (
	"fmt"

	"expelliarmus/internal/pkgfmt"
	"expelliarmus/internal/pkgmeta"
)

// Upgrade replaces an installed package with a different build of the same
// package: the old version's files are removed (shared directories are
// preserved) and the new version installed. The package metadata model
// treats versions as semantically distinct (simP < 1), so upgraded
// packages are re-exported on the next publish — the "software package
// updates" the paper's size model includes.
func (m *Manager) Upgrade(blob []byte) error {
	p, files, err := pkgfmt.Extract(blob)
	if err != nil {
		return err
	}
	old, installed, err := m.Get(p.Name)
	if err != nil {
		return err
	}
	if !installed {
		return fmt.Errorf("pkgmgr: upgrade %s: not installed", p.Name)
	}
	if old.Version == p.Version && old.Arch == p.Arch {
		return fmt.Errorf("pkgmgr: upgrade %s: version %s already installed", p.Name, p.Version)
	}
	if err := m.Remove(p.Name); err != nil {
		return err
	}
	return m.InstallPackage(p, files)
}

// Outdated compares the installed set against a universe and returns the
// packages whose universe version differs, sorted by name.
func (m *Manager) Outdated(u Universe) ([]pkgmeta.Package, error) {
	var out []pkgmeta.Package
	for _, p := range m.index {
		if cur, ok := u.Lookup(p.Name); ok && cur.Version != p.Version {
			out = append(out, cur)
		}
	}
	return out, nil
}
