package pkgmgr

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"expelliarmus/internal/pkgfmt"
	"expelliarmus/internal/pkgmeta"
)

// formatStatus is the oracle for the status file: every package's control
// stanza, formatted afresh, sorted by name and separated by blank lines.
func formatStatus(pkgs []pkgmeta.Package) string {
	sorted := append([]pkgmeta.Package(nil), pkgs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	var b strings.Builder
	for i, p := range sorted {
		if i > 0 {
			b.WriteString("\n")
		}
		b.WriteString(pkgmeta.FormatControl(p))
	}
	return b.String()
}

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
		if string(disk) != formatStatus(pkgs) {
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
		p := pkg(name)
		p.Essential = name == "a" // the root the strip below keeps
		if err := m.InstallPackage(p, filesFor(name)); err != nil {
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
	_, gone := m.Remaining([]string{"z"})
	for _, name := range gone {
		if err := m.Remove(name); err != nil {
			t.Fatal(err)
		}
		check("remove unused " + name)
	}
	if m.IsInstalled("q") || m.IsInstalled("z") || !m.IsInstalled("a") {
		t.Fatal("the strip kept q or z or dropped a")
	}
}

// TestConcurrentRepack pins that Repack is safe to call concurrently:
// many goroutines repack from one Manager at once. The read-only methods write neither the index nor
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

// TestStatusStanzasCanonical: the Manager joins cached stanzas, yet after
// every step of seeded Install, InstallPackage and Remove sequences the
// status file holds exactly the oracle's fresh render of Installed(). One
// sequence starts from a status file with non-canonical spacing and
// stanza order, which New loads as it is and the first write rewrites.
func TestStatusStanzasCanonical(t *testing.T) {
	const handWritten = "Package:  zed\nVersion:2.0\nArchitecture: amd64\n\n\n" +
		"Package: alpha\nDepends: zed ,  libc6\nVersion: 1.0\nEssential: yes\n"
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, fs := newMgr(t)
		if seed == 4 {
			if err := fs.WriteFile(StatusPath, []byte(handWritten)); err != nil {
				t.Fatal(err)
			}
			var err error
			if m, err = New(fs); err != nil {
				t.Fatal(err)
			}
		}
		for step := 0; step < 40; step++ {
			name := fmt.Sprintf("p%02d", rng.Intn(12))
			p := pkg(name, fmt.Sprintf("p%02d", rng.Intn(12)))
			p.Version = fmt.Sprintf("1.%d", step)
			var op string
			var err error
			switch {
			case m.IsInstalled(name):
				op, err = "Remove", m.Remove(name)
			case rng.Intn(2) == 0:
				op, err = "InstallPackage", m.InstallPackage(p, filesFor(name))
			default:
				var blob []byte
				if blob, err = pkgfmt.Build(p, filesFor(name)); err == nil {
					op, err = "Install", installBlob(m, blob)
				}
			}
			if err != nil {
				t.Fatalf("seed %d step %d: %s %s: %v", seed, step, op, name, err)
			}
			pkgs, _ := m.Installed()
			disk, err := fs.ReadFile(StatusPath)
			if err != nil {
				t.Fatal(err)
			}
			if want := formatStatus(pkgs); string(disk) != want {
				t.Fatalf("seed %d step %d: after %s %s the status file is\n%s\nwant\n%s", seed, step, op, name, disk, want)
			}
		}
	}
}

// TestFailedStatusWriteKeepsIndex: when the status file cannot be written
// (here StatusPath has become a directory), InstallPackage and Remove fail
// and leave the index as it was; once the file is writable again, the next
// write holds exactly the packages the index kept.
func TestFailedStatusWriteKeepsIndex(t *testing.T) {
	m, fs := newMgr(t)
	var want []pkgmeta.Package
	for _, name := range []string{"bash", "perl-base", "zsh"} {
		if err := m.InstallPackage(pkg(name, "libc6"), filesFor(name)); err != nil {
			t.Fatal(err)
		}
		want = append(want, pkg(name, "libc6"))
	}
	status, err := fs.ReadFile(StatusPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove(StatusPath); err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll(StatusPath); err != nil {
		t.Fatal(err)
	}
	if err := m.InstallPackage(pkg("dash"), filesFor("dash")); err == nil {
		t.Fatal("InstallPackage succeeded with an unwritable status file")
	}
	if err := m.Remove("perl-base"); err == nil {
		t.Fatal("Remove succeeded with an unwritable status file")
	}
	got, _ := m.Installed()
	if !reflect.DeepEqual(got, want) || m.IsInstalled("dash") || !m.IsInstalled("perl-base") {
		t.Fatalf("after failed writes the index holds %v, want %v", got, want)
	}
	if err := fs.Remove(StatusPath); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(StatusPath, status); err != nil {
		t.Fatal(err)
	}
	if err := m.InstallPackage(pkg("csh"), nil); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile(StatusPath)
	if err != nil {
		t.Fatal(err)
	}
	if want := formatStatus(append(want, pkg("csh"))); string(data) != want {
		t.Fatalf("status after recovery:\n%s\nwant:\n%s", data, want)
	}
}
