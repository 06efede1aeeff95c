// Package pkgmgr implements the guest package manager the paper drives
// through libguestfs (Sec. V): a dpkg/apt analogue that maintains a status
// database inside the guest filesystem, installs and removes binary
// packages, recreates binary packages from installed files (dpkg-repack,
// the core of VMI publishing), auto-removes dependencies that are no longer
// required (Algorithm 1 line 10), and resolves dependency closures and
// installation order with full support for dependency cycles (the paper's
// libc6/perl-base/dpkg example).
//
// A Manager keeps the parsed status database in memory, sorted by name.
// The index is complete before New returns and is replaced only by
// writeStatus, after the same packages reached StatusPath: it is written
// through, never ahead of the disk, and the file is written at the moments
// it always was (a write moves blocks, so when it happens is part of the
// image). Get, IsInstalled, Installed, OwnedFiles and Repack never write
// the index and may run concurrently; methods that change the guest need
// exclusive access. The status file is not re-read, so a filesystem has
// one Manager.
package pkgmgr

import (
	"fmt"
	"path"
	"sort"
	"strings"

	"expelliarmus/internal/fstree"
	"expelliarmus/internal/pkgfmt"
	"expelliarmus/internal/pkgmeta"
)

// StatusPath is the guest path of the package status database.
const StatusPath = "/var/lib/dpkg/status"

// InfoDir is the guest directory holding per-package file lists.
const InfoDir = "/var/lib/dpkg/info"

// Manager operates the package database of one guest filesystem.
type Manager struct {
	fs    *fstree.FS
	index []pkgmeta.Package // the status database, sorted by name
}

// New returns a manager for the guest filesystem, initialising the package
// database directories if missing and loading the status database.
func New(fs *fstree.FS) (*Manager, error) {
	m := &Manager{fs: fs}
	if err := fs.MkdirAll(InfoDir); err != nil {
		return nil, fmt.Errorf("pkgmgr: init: %w", err)
	}
	if !fs.Exists(StatusPath) {
		if err := fs.WriteFile(StatusPath, nil); err != nil {
			return nil, fmt.Errorf("pkgmgr: init status: %w", err)
		}
		return m, nil
	}
	data, err := fs.ReadFile(StatusPath)
	if err != nil {
		return nil, fmt.Errorf("pkgmgr: read status: %w", err)
	}
	m.index, err = pkgmeta.ParseStatus(string(data))
	if err != nil {
		return nil, fmt.Errorf("pkgmgr: parse status: %w", err)
	}
	sort.Slice(m.index, func(i, j int) bool { return m.index[i].Name < m.index[j].Name })
	return m, nil
}

// Installed returns the installed packages sorted by name. The slice is
// the caller's; the packages' Depends are shared and must not be modified.
func (m *Manager) Installed() ([]pkgmeta.Package, error) {
	return append([]pkgmeta.Package(nil), m.index...), nil
}

// find returns the index position of the named package, or where it
// would be inserted.
func (m *Manager) find(name string) (int, bool) {
	i := sort.Search(len(m.index), func(i int) bool { return m.index[i].Name >= name })
	return i, i < len(m.index) && m.index[i].Name == name
}

// Get returns the installed package with the given name.
func (m *Manager) Get(name string) (pkgmeta.Package, bool, error) {
	if i, ok := m.find(name); ok {
		return m.index[i], true, nil
	}
	return pkgmeta.Package{}, false, nil
}

// IsInstalled reports whether the named package is installed.
func (m *Manager) IsInstalled(name string) bool {
	_, ok := m.find(name)
	return ok
}

// writeStatus writes pkgs, sorted by name, as the status file and then
// makes them the index.
func (m *Manager) writeStatus(pkgs []pkgmeta.Package) error {
	if err := m.fs.WriteFile(StatusPath, []byte(pkgmeta.FormatStatus(pkgs))); err != nil {
		return err
	}
	m.index = pkgs
	return nil
}

func listPath(name string) string { return path.Join(InfoDir, name+".list") }

// OwnedFiles returns the absolute paths installed by the named package.
func (m *Manager) OwnedFiles(name string) ([]string, error) {
	data, err := m.fs.ReadFile(listPath(name))
	if err != nil {
		return nil, fmt.Errorf("pkgmgr: %s: no file list: %w", name, err)
	}
	var out []string
	for _, line := range strings.Split(string(data), "\n") {
		if line != "" {
			out = append(out, line)
		}
	}
	return out, nil
}

// InstallPackage installs metadata and files directly (the builder's fast
// path, equivalent to unpacking a binary package).
func (m *Manager) InstallPackage(p pkgmeta.Package, files []pkgfmt.File) error {
	at, ok := m.find(p.Name)
	if ok {
		return fmt.Errorf("pkgmgr: %s already installed (version %s)", p.Name, m.index[at].Version)
	}
	paths := make([]string, 0, len(files))
	for _, f := range files {
		dir := path.Dir(f.Path)
		if err := m.fs.MkdirAll(dir); err != nil {
			return fmt.Errorf("pkgmgr: install %s: %w", p.Name, err)
		}
		if err := m.fs.WriteFile(f.Path, f.Data); err != nil {
			return fmt.Errorf("pkgmgr: install %s: %w", p.Name, err)
		}
		paths = append(paths, f.Path)
	}
	sort.Strings(paths)
	if err := m.fs.WriteFile(listPath(p.Name), []byte(strings.Join(paths, "\n"))); err != nil {
		return err
	}
	pkgs := make([]pkgmeta.Package, 0, len(m.index)+1)
	pkgs = append(append(pkgs, m.index[:at]...), p.Clone())
	return m.writeStatus(append(pkgs, m.index[at:]...))
}

// Install unpacks and registers a binary package blob.
func (m *Manager) Install(blob []byte) error {
	p, files, err := pkgfmt.Extract(blob)
	if err != nil {
		return err
	}
	return m.InstallPackage(p, files)
}

// Remove uninstalls the named package: its files are deleted (empty parent
// directories are pruned) and its database records dropped.
func (m *Manager) Remove(name string) error {
	idx, ok := m.find(name)
	if !ok {
		return fmt.Errorf("pkgmgr: %s is not installed", name)
	}
	files, err := m.OwnedFiles(name)
	if err != nil {
		return err
	}
	dirs := map[string]bool{}
	for _, f := range files {
		if m.fs.Exists(f) {
			if err := m.fs.Remove(f); err != nil {
				return fmt.Errorf("pkgmgr: remove %s: %w", name, err)
			}
		}
		dirs[path.Dir(f)] = true
	}
	m.pruneEmptyDirs(dirs)
	if err := m.fs.Remove(listPath(name)); err != nil {
		return err
	}
	pkgs := make([]pkgmeta.Package, 0, len(m.index)-1)
	pkgs = append(pkgs, m.index[:idx]...)
	return m.writeStatus(append(pkgs, m.index[idx+1:]...))
}

// pruneEmptyDirs removes now-empty directories bottom-up.
func (m *Manager) pruneEmptyDirs(dirs map[string]bool) {
	ordered := make([]string, 0, len(dirs))
	for d := range dirs {
		ordered = append(ordered, d)
	}
	// Deepest first.
	sort.Slice(ordered, func(i, j int) bool { return len(ordered[i]) > len(ordered[j]) })
	for _, d := range ordered {
		for d != "/" {
			entries, err := m.fs.ReadDir(d)
			if err != nil || len(entries) > 0 {
				break
			}
			if err := m.fs.Remove(d); err != nil {
				break
			}
			d = path.Dir(d)
		}
	}
}

// Repack recreates the binary package for the named installed package from
// its on-disk files and metadata — the dpkg-repack step of VMI publishing
// (Sec. V-3).
func (m *Manager) Repack(name string) ([]byte, error) {
	p, ok, err := m.Get(name)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("pkgmgr: %s is not installed", name)
	}
	paths, err := m.OwnedFiles(name)
	if err != nil {
		return nil, err
	}
	files := make([]pkgfmt.File, 0, len(paths))
	for _, fp := range paths {
		data, err := m.fs.ReadFile(fp)
		if err != nil {
			return nil, fmt.Errorf("pkgmgr: repack %s: %w", name, err)
		}
		files = append(files, pkgfmt.File{Path: fp, Data: data})
	}
	return pkgfmt.Build(p, files)
}

// installedUniverse adapts the installed package set to the Universe
// interface for closure computations.
type installedUniverse map[string]pkgmeta.Package

func (u installedUniverse) Lookup(name string) (pkgmeta.Package, bool) {
	p, ok := u[name]
	return p, ok
}

// Autoremove removes every installed, non-essential package that is not in
// keep and not (transitively) required by a kept or essential package —
// Algorithm 1's removeUnusedDependencies. It returns the removed package
// names in sorted order.
func (m *Manager) Autoremove(keep []string) ([]string, error) {
	pkgs := m.index // Remove replaces the index, it never edits this one
	u := make(installedUniverse, len(pkgs))
	for _, p := range pkgs {
		u[p.Name] = p
	}
	roots := append([]string(nil), keep...)
	for _, p := range pkgs {
		if p.Essential {
			roots = append(roots, p.Name)
		}
	}
	marked := map[string]bool{}
	queue := roots
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		if marked[name] {
			continue
		}
		p, ok := u[name]
		if !ok {
			continue // kept name not installed: ignore
		}
		marked[name] = true
		queue = append(queue, p.Depends...)
	}
	var removed []string
	for _, p := range pkgs {
		if !marked[p.Name] {
			removed = append(removed, p.Name)
		}
	}
	sort.Strings(removed)
	for _, name := range removed {
		if err := m.Remove(name); err != nil {
			return removed, err
		}
	}
	return removed, nil
}
