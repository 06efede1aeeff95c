// Package pkgmgr implements the guest package manager the paper drives
// through libguestfs (Sec. V): a dpkg/apt analogue that maintains a status
// database inside the guest filesystem, installs and removes binary
// packages, recreates binary packages from installed files (dpkg-repack,
// the core of VMI publishing), works out without changing the guest which
// dependencies are no longer required (Algorithm 1 line 10's
// removeUnusedDependencies, in Remaining), and resolves dependency
// closures and installation order with full support for dependency cycles
// (the paper's libc6/perl-base/dpkg example).
//
// A Manager keeps the parsed status database in memory, sorted by name.
// The index is complete before New returns and is changed only by
// writeStatus, after the changed database reached StatusPath: it is written
// through, never ahead of the disk, and the file is written at the moments
// it always was (a write moves blocks, so when it happens is part of the
// image). Beside the index the Manager keeps each package's formatted
// status stanza, filled on the first write (or taken from the DB NewFrom
// starts from) and edited with the index, so a write formats only the
// package it adds and copies the rest into a status buffer the Manager
// reuses. No one else sees the index's arrays (Installed returns a copy),
// so an edit inserts or deletes in place. Get, IsInstalled, Installed,
// OwnedFiles, Remaining and Repack never write the index and may run
// concurrently; methods that change the guest need exclusive access. The
// status file is not re-read, so a filesystem has one Manager.
package pkgmgr

import (
	"fmt"
	"path"
	"slices"
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
	fs      *fstree.FS
	index   []pkgmeta.Package // the status database, sorted by name
	stanzas [][]byte          // index[i]'s status stanza; nil until the first write
	status  []byte            // the last status file written, reused by the next
}

// New returns a manager for the guest filesystem, initialising the package
// database directories if missing and loading the status database.
func New(fs *fstree.FS) (*Manager, error) {
	if err := initDB(fs); err != nil {
		return nil, err
	}
	return Load(fs)
}

// DB is a status database as Load reads it, with every stanza formatted.
// It is never changed, so any number of Managers may start from one.
type DB struct {
	index   []pkgmeta.Package
	stanzas [][]byte
}

// ReadDB reads the guest's status database without writing the guest.
func ReadDB(fs *fstree.FS) (DB, error) {
	m, err := Load(fs)
	if err != nil {
		return DB{}, err
	}
	return DB{m.index, m.formatted()}, nil
}

// NewFrom is New for a filesystem whose status database is db, such as a
// CloneOnto of the one ReadDB read db from: it makes New's guest writes,
// then starts from a copy of db instead of reading the file again. The
// copy shares db's packages and stanza bytes, which no Manager edits in
// place.
func NewFrom(fs *fstree.FS, db DB) (*Manager, error) {
	if err := initDB(fs); err != nil {
		return nil, err
	}
	return &Manager{fs: fs, index: slices.Clone(db.index), stanzas: slices.Clone(db.stanzas)}, nil
}

// initDB creates the package database directories and an empty status
// file where they are missing.
func initDB(fs *fstree.FS) error {
	if err := fs.MkdirAll(InfoDir); err != nil {
		return fmt.Errorf("pkgmgr: init: %w", err)
	}
	if !fs.Exists(StatusPath) {
		if err := fs.WriteFile(StatusPath, nil); err != nil {
			return fmt.Errorf("pkgmgr: init status: %w", err)
		}
	}
	return nil
}

// Load returns a manager over the guest's status database without writing
// the guest: a guest without one has no packages installed. Its read
// methods never write either; a method that changes the guest needs a
// manager from New or NewFrom.
func Load(fs *fstree.FS) (*Manager, error) {
	m := &Manager{fs: fs}
	if !fs.Exists(StatusPath) {
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

// formatted returns the status stanzas of the index, formatting them on
// the first call.
func (m *Manager) formatted() [][]byte {
	if m.stanzas == nil {
		m.stanzas = make([][]byte, len(m.index))
		for i, p := range m.index {
			m.stanzas[i] = pkgmeta.AppendControl(nil, p)
		}
	}
	return m.stanzas
}

// writeStatus writes the status file of the index edited at position at:
// with add inserted there or, for a nil add, without the package there.
// Only once the file is written does it edit the index, so a failed write
// leaves the index as it was.
func (m *Manager) writeStatus(at int, add *pkgmeta.Package) error {
	stanzas := m.formatted()
	rest := stanzas[at:]
	var stanza []byte
	if add != nil {
		stanza = pkgmeta.AppendControl(nil, *add)
	} else {
		rest = stanzas[at+1:]
	}
	buf, n := m.status[:0], 0
	put := func(s []byte) {
		if n++; n > 1 {
			buf = append(buf, '\n')
		}
		buf = append(buf, s...)
	}
	for _, s := range stanzas[:at] {
		put(s)
	}
	if add != nil {
		put(stanza)
	}
	for _, s := range rest {
		put(s)
	}
	m.status = buf
	if err := m.fs.WriteFile(StatusPath, buf); err != nil {
		return err
	}
	if add == nil {
		m.index, m.stanzas = slices.Delete(m.index, at, at+1), slices.Delete(stanzas, at, at+1)
		return nil
	}
	m.index, m.stanzas = slices.Insert(m.index, at, add.Clone()), slices.Insert(stanzas, at, stanza)
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

// InstallPackage installs metadata and files, as unpacking a binary
// package with pkgfmt.Extract yields them. It changes neither: the index
// holds a clone of p and the guest a copy of each file's data.
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
	return m.writeStatus(at, &p)
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
	return m.writeStatus(idx, nil)
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

// Remaining works out Algorithm 1 lines 7–10 without changing the guest.
// It returns the packages the strip leaves installed, sorted by name: the
// essential packages outside names and their dependency closure over the
// rest. It also returns the removal list in strip order: each installed
// package in names (first occurrence, in the order given), then every
// package those roots no longer reach (removeUnusedDependencies), by name.
// Calling Remove on each name of the list in turn is the strip.
func (m *Manager) Remaining(names []string) (kept []pkgmeta.Package, gone []string) {
	named := make(map[string]bool, len(names))
	for _, n := range names {
		if !named[n] && m.IsInstalled(n) {
			gone = append(gone, n)
		}
		named[n] = true
	}
	rest := make(map[string]pkgmeta.Package, len(m.index))
	var queue []string
	for _, p := range m.index {
		if named[p.Name] {
			continue
		}
		rest[p.Name] = p
		if p.Essential {
			queue = append(queue, p.Name)
		}
	}
	marked := map[string]bool{}
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		p, ok := rest[name]
		if !ok || marked[name] {
			continue
		}
		marked[name] = true
		queue = append(queue, p.Depends...)
	}
	for _, p := range m.index {
		switch {
		case marked[p.Name]:
			kept = append(kept, p)
		case !named[p.Name]:
			gone = append(gone, p.Name)
		}
	}
	return kept, gone
}
