package fsx

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
)

// Kind is a fault Fault can inject.
type Kind int

const (
	// Crash cuts the power at the call: it fails, and so does every later
	// call on the Fault and its files (see Fault for what survives).
	Crash Kind = iota + 1
	// FailSync fails an fsync of a file or a directory with EIO. A file
	// also loses every write since its last successful fsync, as Linux may
	// drop dirty pages after a write-back error; a directory keeps its
	// entries.
	FailSync
	// ShortWrite writes the first half of a write's bytes and fails it
	// with ENOSPC.
	ShortWrite
)

// ErrCrashed is returned by every call on a Fault after its crash.
var ErrCrashed = errors.New("fsx: crashed")

// Call is one mutating call, as Trace reports it.
type Call struct {
	// Op is one of create, write, sync, truncate, rename, remove, mkdir
	// and syncdir.
	Op string
	// File is the base name of the path the call touches (the new name of
	// a rename, the pattern of a CreateTemp).
	File string
}

// Fault is an FS over the real file system that counts mutating calls —
// creating opens, writes, fsyncs, truncations, renames, removals, mkdirs
// and directory fsyncs — and injects one armed fault at an enumerated
// call.
//
// Durability is modelled, not delegated: Fault never calls the real fsync.
// It records, per file, the length its last successful Sync covered, and
// a crash cuts every file back to that length, so writes that were never
// fsynced are lost as in a power cut. Directory entries keep page-cache
// semantics: a create, rename or removal survives a crash even if its
// directory was never fsynced. The model therefore cannot catch a missing
// directory fsync. Truncations, too, take effect at once and for good.
//
// A crash also closes every file the Fault opened and releases every lock
// it took, so the same process can reopen the directory — on the real
// file system — and recover from what the crash left behind.
type Fault struct {
	mu      sync.Mutex
	crashed bool
	kind    Kind
	left    int    // applicable calls until the armed fault fires
	prefix  string // base-name prefix an applicable call must touch
	trace   []Call
	durable map[string]int64 // tracked path -> length a crash keeps
	open    map[*faultFile]bool
	unlocks map[int]func() error // lock id -> release, for locks still held
	nextID  int
}

// NewFault returns a Fault with nothing armed.
func NewFault() *Fault {
	return &Fault{
		durable: map[string]int64{},
		open:    map[*faultFile]bool{},
		unlocks: map[int]func() error{},
	}
}

// Inject arms one fault, replacing any armed one, and restarts the trace.
// The fault fires at the n-th call from now that it applies to — any
// mutating call for Crash, an fsync for FailSync, a write for ShortWrite —
// counting only calls on files whose base name starts with file ("" for
// all). n < 1 arms nothing.
func (f *Fault) Inject(k Kind, n int, file string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.kind, f.left, f.prefix, f.trace = k, n, file, nil
	if n < 1 {
		f.kind = 0
	}
}

// Trace returns the mutating calls made since the last Inject (since
// NewFault before the first), in order.
func (f *Fault) Trace() []Call {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Call(nil), f.trace...)
}

// Crashed reports whether the Fault has crashed.
func (f *Fault) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Crash cuts the power now. It returns an error only when the real file
// system refused to cut a file back to its fsynced length.
func (f *Fault) Crash() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashLocked()
}

func (f *Fault) crashLocked() error {
	if f.crashed {
		return nil
	}
	f.crashed = true
	for h := range f.open {
		h.f.Close()
	}
	f.open = nil
	for _, unlock := range f.unlocks {
		unlock()
	}
	f.unlocks = nil
	var first error
	for path, n := range f.durable {
		fi, err := os.Stat(path)
		if err == nil && fi.Size() > n {
			err = os.Truncate(path, n)
		}
		if err != nil && !errors.Is(err, fs.ErrNotExist) && first == nil {
			first = err
		}
	}
	return first
}

// step counts one mutating call and returns the non-crash fault it must
// suffer, if the armed one fires here.
func (f *Fault) step(op, path string) (Kind, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return 0, ErrCrashed
	}
	base := filepath.Base(path)
	f.trace = append(f.trace, Call{Op: op, File: base})
	switch {
	case f.kind == 0 || !strings.HasPrefix(base, f.prefix):
		return 0, nil
	case f.kind == FailSync && op != "sync" && op != "syncdir":
		return 0, nil
	case f.kind == ShortWrite && op != "write":
		return 0, nil
	}
	if f.left--; f.left > 0 {
		return 0, nil
	}
	k := f.kind
	f.kind = 0
	if k == Crash {
		if err := f.crashLocked(); err != nil {
			return 0, fmt.Errorf("%w: %v", ErrCrashed, err)
		}
		return 0, ErrCrashed
	}
	return k, nil
}

func (f *Fault) live() error {
	if f.Crashed() {
		return ErrCrashed
	}
	return nil
}

// track registers an open file, first seen at its current size: whatever
// the file held before this Fault touched it counts as durable.
func (f *Fault) track(file *os.File, name string) (File, error) {
	fi, err := file.Stat()
	if err != nil {
		file.Close()
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		file.Close()
		return nil, ErrCrashed
	}
	path := filepath.Clean(name)
	if n, ok := f.durable[path]; !ok || fi.Size() < n {
		f.durable[path] = fi.Size()
	}
	h := &faultFile{fs: f, f: file, path: path}
	f.open[h] = true
	return h, nil
}

func (f *Fault) OpenFile(name string, flag int) (File, error) {
	if flag&(os.O_CREATE|os.O_TRUNC) != 0 {
		if _, err := f.step("create", name); err != nil {
			return nil, err
		}
	} else if err := f.live(); err != nil {
		return nil, err
	}
	file, err := os.OpenFile(name, flag, 0o644)
	if err != nil {
		return nil, err
	}
	return f.track(file, name)
}

func (f *Fault) CreateTemp(dir, pattern string) (File, error) {
	if _, err := f.step("create", pattern); err != nil {
		return nil, err
	}
	file, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f.track(file, file.Name())
}

func (f *Fault) ReadFile(name string) ([]byte, error) {
	if err := f.live(); err != nil {
		return nil, err
	}
	return os.ReadFile(name)
}

func (f *Fault) ReadDir(name string) ([]fs.DirEntry, error) {
	if err := f.live(); err != nil {
		return nil, err
	}
	return os.ReadDir(name)
}

func (f *Fault) MkdirAll(path string) error {
	if _, err := f.step("mkdir", path); err != nil {
		return err
	}
	return os.MkdirAll(path, 0o755)
}

func (f *Fault) Remove(name string) error {
	if _, err := f.step("remove", name); err != nil {
		return err
	}
	if err := os.Remove(name); err != nil {
		return err
	}
	f.mu.Lock()
	delete(f.durable, filepath.Clean(name))
	f.mu.Unlock()
	return nil
}

func (f *Fault) Rename(oldpath, newpath string) error {
	if _, err := f.step("rename", newpath); err != nil {
		return err
	}
	if err := os.Rename(oldpath, newpath); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	if n, ok := f.durable[oldpath]; ok {
		f.durable[newpath] = n
		delete(f.durable, oldpath)
	} else {
		delete(f.durable, newpath)
	}
	return nil
}

func (f *Fault) SyncDir(dir string) error {
	k, err := f.step("syncdir", dir)
	if err != nil {
		return err
	}
	if k == FailSync {
		return &fs.PathError{Op: "sync", Path: dir, Err: syscall.EIO}
	}
	return nil
}

func (f *Fault) Lock(dir string) (func() error, error) {
	if err := f.live(); err != nil {
		return nil, err
	}
	unlock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		unlock()
		return nil, ErrCrashed
	}
	f.nextID++
	id := f.nextID
	f.unlocks[id] = unlock
	return func() error {
		f.mu.Lock()
		defer f.mu.Unlock()
		if _, held := f.unlocks[id]; !held {
			return nil // released by the crash
		}
		delete(f.unlocks, id)
		return unlock()
	}, nil
}

// faultFile is a File opened through a Fault.
type faultFile struct {
	fs   *Fault
	f    *os.File
	path string
}

func (h *faultFile) Name() string { return h.f.Name() }

func (h *faultFile) Read(p []byte) (int, error) {
	if err := h.fs.live(); err != nil {
		return 0, err
	}
	return h.f.Read(p)
}

func (h *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if err := h.fs.live(); err != nil {
		return 0, err
	}
	return h.f.ReadAt(p, off)
}

func (h *faultFile) Seek(off int64, whence int) (int64, error) {
	if err := h.fs.live(); err != nil {
		return 0, err
	}
	return h.f.Seek(off, whence)
}

func (h *faultFile) Stat() (fs.FileInfo, error) {
	if err := h.fs.live(); err != nil {
		return nil, err
	}
	return h.f.Stat()
}

func (h *faultFile) Write(p []byte) (int, error) {
	k, err := h.fs.step("write", h.path)
	if err != nil {
		return 0, err
	}
	if k == ShortWrite {
		n, err := h.f.Write(p[:len(p)/2])
		if err != nil {
			return n, err
		}
		return n, &fs.PathError{Op: "write", Path: h.path, Err: syscall.ENOSPC}
	}
	return h.f.Write(p)
}

func (h *faultFile) Sync() error {
	k, err := h.fs.step("sync", h.path)
	if err != nil {
		return err
	}
	fi, err := h.f.Stat()
	if err != nil {
		return err
	}
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if k == FailSync {
		if err := h.f.Truncate(h.fs.durable[h.path]); err != nil {
			return err
		}
		return &fs.PathError{Op: "sync", Path: h.path, Err: syscall.EIO}
	}
	h.fs.durable[h.path] = fi.Size()
	return nil
}

func (h *faultFile) Truncate(size int64) error {
	if _, err := h.fs.step("truncate", h.path); err != nil {
		return err
	}
	if err := h.f.Truncate(size); err != nil {
		return err
	}
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if size < h.fs.durable[h.path] {
		h.fs.durable[h.path] = size
	}
	return nil
}

func (h *faultFile) Close() error {
	h.fs.mu.Lock()
	crashed := h.fs.crashed
	delete(h.fs.open, h)
	h.fs.mu.Unlock()
	if crashed {
		return ErrCrashed
	}
	return h.f.Close()
}
