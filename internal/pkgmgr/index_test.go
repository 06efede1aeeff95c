package pkgmgr

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"expelliarmus/internal/pkgmeta"
)

// TestIndexLoadedByNew: a second Manager over a filesystem that already
// holds packages answers from the moment New returns, without any call
// that could load lazily, and reads the status file no more after that.
func TestIndexLoadedByNew(t *testing.T) {
	m, fs := newMgr(t)
	for _, name := range []string{"zsh", "bash", "perl-base"} {
		if err := m.InstallPackage(pkg(name, "libc6"), filesFor(name)); err != nil {
			t.Fatal(err)
		}
	}
	reopened, err := New(fs)
	if err != nil {
		t.Fatal(err)
	}
	// With the status file gone, only the index can answer.
	if err := fs.Remove(StatusPath); err != nil {
		t.Fatal(err)
	}
	pkgs, err := reopened.Installed()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, p := range pkgs {
		names = append(names, p.Name)
	}
	if want := []string{"bash", "perl-base", "zsh"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("Installed = %v, want %v", names, want)
	}
	if got, ok, err := reopened.Get("perl-base"); err != nil || !ok || !reflect.DeepEqual(got, pkg("perl-base", "libc6")) {
		t.Fatalf("Get = %+v, %v, %v", got, ok, err)
	}
	if reopened.IsInstalled("libc6") || !reopened.IsInstalled("zsh") {
		t.Fatal("IsInstalled disagrees with the index")
	}
}

// TestNewRejectsCorruptStatus: the index is complete or New fails; there
// is no Manager with a half-loaded database.
func TestNewRejectsCorruptStatus(t *testing.T) {
	_, fs := newMgr(t)
	if err := fs.WriteFile(StatusPath, []byte("Version: 1.0\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := New(fs); err == nil {
		t.Fatal("New accepted a status file without a Package field")
	}
}

// TestIndexWrittenThrough: after every change the status file holds
// exactly the index — the bytes a fresh parse of it formats to — and the
// slice Installed returns is the caller's to reorder.
func TestIndexWrittenThrough(t *testing.T) {
	m, fs := newMgr(t)
	check := func(step string) {
		t.Helper()
		pkgs, _ := m.Installed()
		disk, err := fs.ReadFile(StatusPath)
		if err != nil {
			t.Fatal(err)
		}
		if string(disk) != pkgmeta.FormatStatus(pkgs) {
			t.Fatalf("%s: status file differs from the index", step)
		}
		parsed, err := pkgmeta.ParseStatus(string(disk))
		if err != nil || len(parsed) != len(pkgs) {
			t.Fatalf("%s: status file parses to %d packages, %v; index has %d", step, len(parsed), err, len(pkgs))
		}
		for i := range pkgs {
			if !reflect.DeepEqual(parsed[i], pkgs[i]) {
				t.Fatalf("%s: status file has %+v where the index has %+v", step, parsed[i], pkgs[i])
			}
		}
	}
	for _, name := range []string{"m", "z", "a", "q"} {
		if err := m.InstallPackage(pkg(name), filesFor(name)); err != nil {
			t.Fatal(err)
		}
		check("install " + name)
	}
	pkgs, _ := m.Installed()
	pkgs[0], pkgs[3] = pkgs[3], pkgs[0]
	if !m.IsInstalled("a") || !m.IsInstalled("z") {
		t.Fatal("reordering Installed's result disturbed the index")
	}
	if err := m.Remove("m"); err != nil {
		t.Fatal(err)
	}
	check("remove m")
	if _, err := m.Autoremove([]string{"a"}); err != nil {
		t.Fatal(err)
	}
	check("autoremove")
	if m.IsInstalled("q") || !m.IsInstalled("a") {
		t.Fatal("autoremove kept q or dropped a")
	}
}

// TestConcurrentRepack is publish's export loop: many workers repack from
// one Manager at once. The read-only methods write neither the index nor
// the filesystem's allocation state, so under -race this is silent, and
// every blob equals the one a lone Repack builds.
func TestConcurrentRepack(t *testing.T) {
	m, _ := newMgr(t)
	const workers = 16
	names := make([]string, workers)
	want := make([][]byte, workers)
	for i := range names {
		names[i] = fmt.Sprintf("pkg%02d", i)
		if err := m.InstallPackage(pkg(names[i], "libc6"), filesFor(names[i])); err != nil {
			t.Fatal(err)
		}
	}
	for i, name := range names {
		blob, err := m.Repack(name)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = blob
	}
	var wg sync.WaitGroup
	for i := range names {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for round := 0; round < 8; round++ {
				name := names[(i+round)%workers]
				blob, err := m.Repack(name)
				if err != nil || !bytes.Equal(blob, want[(i+round)%workers]) {
					t.Errorf("concurrent Repack(%s): blob differs or failed: %v", name, err)
				}
				if !m.IsInstalled(name) {
					t.Errorf("IsInstalled(%s) = false during concurrent repack", name)
				}
				if pkgs, _ := m.Installed(); len(pkgs) != workers {
					t.Errorf("Installed returned %d packages during concurrent repack", len(pkgs))
				}
				if _, err := m.OwnedFiles(name); err != nil {
					t.Errorf("OwnedFiles(%s): %v", name, err)
				}
			}
		}(i)
	}
	wg.Wait()
}
