// Package fsx is the storage engines' one file-system seam. The blob
// store (diskstore), the metadata log (metawal) and the atomic file
// replace they share (atomicfile) make every file-system call through an
// FS, so a test can swap the real file system for Fault, which injects a
// crash, a failed fsync or a short write at an enumerated call.
//
// Files are created with mode 0644 and directories with 0755.
package fsx

import (
	"io"
	"io/fs"
	"os"
)

// File is an open file: the subset of *os.File the storage engines use.
type File interface {
	io.Reader
	io.ReaderAt
	io.Writer
	io.Seeker
	io.Closer
	Name() string
	Stat() (fs.FileInfo, error)
	Sync() error
	Truncate(size int64) error
}

// FS is a file system. Paths are operating-system paths.
type FS interface {
	// OpenFile opens name with the os.O_* flags in flag.
	OpenFile(name string, flag int) (File, error)
	// CreateTemp creates a new file in dir, named by pattern as in
	// os.CreateTemp, open for reading and writing.
	CreateTemp(dir, pattern string) (File, error)
	ReadFile(name string) ([]byte, error)
	ReadDir(name string) ([]fs.DirEntry, error)
	MkdirAll(path string) error
	Remove(name string) error
	Rename(oldpath, newpath string) error
	// SyncDir fsyncs directory dir, so entries created, renamed or removed
	// in it survive power loss.
	SyncDir(dir string) error
	// Lock takes an exclusive advisory lock on dir, failing if another
	// holder (in this process or another) has it. The lock dies with the
	// process, so a crash never leaves a stale one behind.
	Lock(dir string) (unlock func() error, err error)
}

// OS is the real file system.
var OS FS = osFS{}

// Or returns fsys, or OS when fsys is nil: the default of every Options.FS.
func Or(fsys FS) FS {
	if fsys == nil {
		return OS
	}
	return fsys
}

type osFS struct{}

func (osFS) OpenFile(name string, flag int) (File, error) {
	f, err := os.OpenFile(name, flag, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadFile(name string) ([]byte, error)       { return os.ReadFile(name) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }
func (osFS) MkdirAll(path string) error                 { return os.MkdirAll(path, 0o755) }
func (osFS) Remove(name string) error                   { return os.Remove(name) }
func (osFS) Rename(oldpath, newpath string) error       { return os.Rename(oldpath, newpath) }
func (osFS) Lock(dir string) (func() error, error)      { return lockDir(dir) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}
