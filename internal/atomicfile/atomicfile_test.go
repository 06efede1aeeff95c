package atomicfile

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"expelliarmus/internal/fsx"
	"expelliarmus/internal/fsx/fsxtest"
)

// TestWriteReplaces: a write creates the file, a second write replaces it
// whole (shorter content leaves no tail of the longer one behind), and the
// temporary is gone after each.
func TestWriteReplaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "commit")
	for _, content := range [][]byte{[]byte("first, and the longer of the two"), []byte("second"), {}} {
		if err := Write(fsx.OS, path, content); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || !bytes.Equal(got, content) {
			t.Fatalf("after Write(%q): read %q, %v", content, got, err)
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("temporary left behind: %v", err)
		}
	}
}

// TestLeftoverTmpIsInert models a crash between writing the temporary and
// renaming it: the committed file still reads as the old content, and the
// next write goes through over the stale temporary and removes it.
func TestLeftoverTmpIsInert(t *testing.T) {
	path := filepath.Join(t.TempDir(), "commit")
	if err := Write(fsx.OS, path, []byte("committed")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".tmp", []byte("half of a much longer image that never got renam"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "committed" {
		t.Fatalf("stale temporary changed the committed file: %q", got)
	}
	if err := Write(fsx.OS, path, []byte("next")); err != nil {
		t.Fatalf("write over a stale temporary: %v", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "next" {
		t.Fatalf("after recovery write: %q", got)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("stale temporary survived the next write: %v", err)
	}
}

// TestReplaceIsAtomic reads the file continuously while it is replaced
// back and forth between two images of different lengths: every read sees
// one of them whole — never a mixture, a prefix, or an empty file.
func TestReplaceIsAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "commit")
	images := [][]byte{bytes.Repeat([]byte("A"), 8192), bytes.Repeat([]byte("b"), 100)}
	if err := Write(fsx.OS, path, images[0]); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan error, 1) // the reader's one verdict
	go func() {
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			got, err := os.ReadFile(path)
			if err != nil {
				done <- err
				return
			}
			if !bytes.Equal(got, images[0]) && !bytes.Equal(got, images[1]) {
				done <- os.ErrInvalid
				return
			}
		}
	}()
	var werr error
	for i := 1; i <= 100 && werr == nil; i++ {
		werr = Write(fsx.OS, path, images[i%2])
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("reader saw something other than a whole image: %v", err)
	}
	if werr != nil {
		t.Fatal(werr)
	}
}

// TestWriteErrors: a path that cannot be created is an error naming the
// package, with nothing written; a missing directory cannot be synced.
func TestWriteErrors(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-dir")
	if err := Write(fsx.OS, filepath.Join(missing, "commit"), []byte("x")); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
	if err := fsx.OS.SyncDir(missing); err == nil {
		t.Fatal("fsync of a missing directory succeeded")
	}
}

// TestWriteCrashSweep crashes Write at each of its mutating calls: the
// target then reads the old or the new bytes whole, never a mixture, and
// whatever temporary the crash left is inert on the next Write.
func TestWriteCrashSweep(t *testing.T) {
	old, next := []byte("the old image, longer than the new"), []byte("the new image")
	windows := []fsxtest.Window{
		{Name: "before-rename", Want: "old"},
		{Name: "after-rename", Op: "syncdir", Want: "new"},
	}
	fsxtest.Sweep(t, []string{"old", "new"}, windows, func(t *testing.T, ffs *fsx.Fault, n int) string {
		path := filepath.Join(t.TempDir(), "commit")
		if err := Write(fsx.OS, path, old); err != nil {
			t.Fatal(err)
		}
		ffs.Inject(fsx.Crash, n, "")
		if err := Write(ffs, path, next); (err != nil) != ffs.Crashed() || (err != nil && !errors.Is(err, fsx.ErrCrashed)) {
			t.Fatalf("Write = %v with crashed = %v", err, ffs.Crashed())
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		state := map[string]string{string(old): "old", string(next): "new"}[string(got)]
		if err := Write(fsx.OS, path, []byte("after")); err != nil {
			t.Fatalf("write over the crash leftovers: %v", err)
		}
		if got, _ := os.ReadFile(path); string(got) != "after" {
			t.Fatalf("write over the crash leftovers reads %q", got)
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("temporary survived the next write: %v", err)
		}
		return state
	})
}
