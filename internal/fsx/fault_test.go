package fsx_test

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"testing"

	"expelliarmus/internal/fsx"
)

func mustOpen(t *testing.T, fsys fsx.FS, name string, flag int) fsx.File {
	t.Helper()
	f, err := fsys.OpenFile(name, flag)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func write(t *testing.T, f fsx.File, s string) {
	t.Helper()
	if _, err := f.Write([]byte(s)); err != nil {
		t.Fatal(err)
	}
}

func content(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCrashKeepsOnlyFsyncedBytes: a crash cuts every file back to what its
// last fsync covered — bytes a file held before the Fault first opened it
// count as durable — and everything afterwards fails with ErrCrashed.
func TestCrashKeepsOnlyFsyncedBytes(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "old")
	if err := os.WriteFile(old, []byte("on disk|"), 0o644); err != nil {
		t.Fatal(err)
	}
	ffs := fsx.NewFault()
	a := mustOpen(t, ffs, old, os.O_RDWR|os.O_APPEND)
	write(t, a, "unsynced")
	b := mustOpen(t, ffs, filepath.Join(dir, "new"), os.O_RDWR|os.O_CREATE)
	write(t, b, "synced|")
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	write(t, b, "lost")
	if err := ffs.Crash(); err != nil {
		t.Fatal(err)
	}
	if got := content(t, old); got != "on disk|" {
		t.Fatalf("pre-existing file after crash = %q", got)
	}
	if got := content(t, filepath.Join(dir, "new")); got != "synced|" {
		t.Fatalf("synced file after crash = %q", got)
	}
	if _, err := b.Write([]byte("x")); !errors.Is(err, fsx.ErrCrashed) {
		t.Fatalf("write after crash = %v", err)
	}
	if _, err := ffs.ReadFile(old); !errors.Is(err, fsx.ErrCrashed) {
		t.Fatalf("read after crash = %v", err)
	}
	if !ffs.Crashed() {
		t.Fatal("Crashed() = false after Crash")
	}
}

// TestCrashKeepsDirectoryEntries pins the documented limit of the model:
// creates, renames and removals survive a crash without a directory fsync.
func TestCrashKeepsDirectoryEntries(t *testing.T) {
	dir := t.TempDir()
	ffs := fsx.NewFault()
	f := mustOpen(t, ffs, filepath.Join(dir, "a.tmp"), os.O_WRONLY|os.O_CREATE)
	write(t, f, "never synced")
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ffs.Rename(filepath.Join(dir, "a.tmp"), filepath.Join(dir, "a")); err != nil {
		t.Fatal(err)
	}
	gone := mustOpen(t, ffs, filepath.Join(dir, "gone"), os.O_WRONLY|os.O_CREATE)
	gone.Close()
	if err := ffs.Remove(filepath.Join(dir, "gone")); err != nil {
		t.Fatal(err)
	}
	ffs.Crash()
	if got := content(t, filepath.Join(dir, "a")); got != "" {
		t.Fatalf("renamed file kept unsynced bytes %q", got)
	}
	if _, err := os.Stat(filepath.Join(dir, "gone")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("removed file came back: %v", err)
	}
}

// TestInjectCountsApplicableCalls: a fault fires at the n-th call it
// applies to — here the second write to a file named b* — and only once.
func TestInjectCountsApplicableCalls(t *testing.T) {
	dir := t.TempDir()
	ffs := fsx.NewFault()
	a := mustOpen(t, ffs, filepath.Join(dir, "a"), os.O_WRONLY|os.O_CREATE)
	b := mustOpen(t, ffs, filepath.Join(dir, "b"), os.O_WRONLY|os.O_CREATE)
	ffs.Inject(fsx.ShortWrite, 2, "b")
	write(t, b, "1111")
	write(t, a, "2222")
	n, err := b.Write([]byte("3333"))
	if n != 2 || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("armed write = %d, %v; want 2, ENOSPC", n, err)
	}
	write(t, b, "4444")
	if got := content(t, filepath.Join(dir, "b")); got != "1111334444" {
		t.Fatalf("b = %q", got)
	}
	want := []fsx.Call{{"write", "b"}, {"write", "a"}, {"write", "b"}, {"write", "b"}}
	if got := ffs.Trace(); !slices.Equal(got, want) {
		t.Fatalf("trace = %v, want %v", got, want)
	}
}

// TestFailSyncLosesUnsyncedWrites: a failed fsync returns EIO and the file
// loses what it was meant to persist; the next fsync works.
func TestFailSyncLosesUnsyncedWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	ffs := fsx.NewFault()
	f := mustOpen(t, ffs, path, os.O_RDWR|os.O_CREATE|os.O_APPEND)
	write(t, f, "kept|")
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	write(t, f, "dropped")
	ffs.Inject(fsx.FailSync, 1, "")
	if err := f.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("armed fsync = %v, want EIO", err)
	}
	if got := content(t, path); got != "kept|" {
		t.Fatalf("after failed fsync = %q", got)
	}
	write(t, f, "again")
	if err := f.Sync(); err != nil {
		t.Fatalf("fsync after the one-shot fault: %v", err)
	}
	ffs.Crash()
	if got := content(t, path); got != "kept|again" {
		t.Fatalf("after crash = %q", got)
	}
}

// TestCrashReleasesLocks: a crash drops the Fault's directory locks, so
// the real file system can take them again in the same process.
func TestCrashReleasesLocks(t *testing.T) {
	dir := t.TempDir()
	ffs := fsx.NewFault()
	unlock, err := ffs.Lock(dir)
	if err != nil {
		t.Fatal(err)
	}
	ffs.Inject(fsx.Crash, 1, "")
	if err := ffs.MkdirAll(filepath.Join(dir, "sub")); !errors.Is(err, fsx.ErrCrashed) {
		t.Fatalf("crashing call = %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "sub")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the crashing call took effect: %v", err)
	}
	again, err := fsx.OS.Lock(dir)
	if err != nil {
		t.Fatalf("lock after crash: %v", err)
	}
	again()
	if err := unlock(); err != nil {
		t.Fatalf("unlock after crash: %v", err)
	}
}
