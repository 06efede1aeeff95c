package pkgfmt

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"expelliarmus/internal/pkgmeta"
)

func samplePkg() pkgmeta.Package {
	return pkgmeta.Package{
		Name: "redis-server", Version: "3.0.6", Arch: "amd64", Distro: "ubuntu",
		Section: "database", InstalledSize: 1 << 20, Depends: []string{"libc6"},
	}
}

func sampleFiles() []File {
	return []File{
		{Path: "/usr/bin/redis-server", Data: bytes.Repeat([]byte{0x7f, 'E', 'L', 'F'}, 500)},
		{Path: "/etc/redis/redis.conf", Data: []byte("port 6379\n")},
		{Path: "/usr/share/doc/redis/README", Data: []byte("redis docs")},
	}
}

func TestBuildExtractRoundTrip(t *testing.T) {
	blob, err := Build(samplePkg(), sampleFiles())
	if err != nil {
		t.Fatal(err)
	}
	p, files, err := Extract(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, samplePkg()) {
		t.Fatalf("metadata mismatch: %+v", p)
	}
	if len(files) != 3 {
		t.Fatalf("got %d files", len(files))
	}
	// Files come back sorted by path.
	if files[0].Path != "/etc/redis/redis.conf" {
		t.Fatalf("first file %q, want /etc/redis/redis.conf", files[0].Path)
	}
	byPath := map[string][]byte{}
	for _, f := range files {
		byPath[f.Path] = f.Data
	}
	for _, want := range sampleFiles() {
		if !bytes.Equal(byPath[want.Path], want.Data) {
			t.Fatalf("file %s corrupted", want.Path)
		}
	}
}

// TestExtractKeepsNoInput: the files Extract returns share no bytes with
// its input, so a caller may reuse the input buffer for the next package
// while the files are still in use.
func TestExtractKeepsNoInput(t *testing.T) {
	blob, err := Build(samplePkg(), sampleFiles())
	if err != nil {
		t.Fatal(err)
	}
	p, files, err := Extract(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i := range blob {
		blob[i] ^= 0xff
	}
	if !reflect.DeepEqual(p, samplePkg()) {
		t.Fatalf("the package changed with Extract's input: %+v", p)
	}
	want := sampleFiles()
	slices.SortFunc(want, func(a, b File) int { return strings.Compare(a.Path, b.Path) })
	if !reflect.DeepEqual(files, want) {
		t.Fatal("the files changed with Extract's input")
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, err := Build(samplePkg(), sampleFiles())
	if err != nil {
		t.Fatal(err)
	}
	// Different input order must not change the output.
	files := sampleFiles()
	files[0], files[2] = files[2], files[0]
	b, err := Build(samplePkg(), files)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("package build not deterministic under file reordering")
	}
}

func TestBuildCompresses(t *testing.T) {
	// Repetitive content must compress: the stored .deb is smaller than
	// the installed size, as the paper notes.
	data := bytes.Repeat([]byte("configuration line with repetition\n"), 2000)
	files := []File{{Path: "/etc/big.conf", Data: data}}
	blob, err := Build(samplePkg(), files)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) >= len(data)/2 {
		t.Fatalf("package %d bytes not much smaller than payload %d", len(blob), len(data))
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	if _, err := Build(pkgmeta.Package{}, nil); err == nil {
		t.Fatal("accepted package without name")
	}
	if _, err := Build(samplePkg(), []File{{Path: "relative/path", Data: nil}}); err == nil {
		t.Fatal("accepted relative file path")
	}
}

func TestExtractRejectsCorrupt(t *testing.T) {
	if _, _, err := Extract([]byte("not gzip")); err == nil {
		t.Fatal("accepted non-gzip blob")
	}
	blob, _ := Build(samplePkg(), sampleFiles())
	if _, _, err := Extract(blob[:len(blob)/2]); err == nil {
		t.Fatal("accepted truncated blob")
	}
}

// TestExtractReusesReaders: Extract's pooled gzip readers carry nothing
// from one package to the next: after a corrupt or truncated blob, and on
// many goroutines at once, every extraction returns the files it would
// from a fresh reader.
func TestExtractReusesReaders(t *testing.T) {
	other := []File{{Path: "/etc/motd", Data: bytes.Repeat([]byte("welcome\n"), 300)}}
	var blobs [2][]byte
	for i, files := range [][]File{sampleFiles(), other} {
		b, err := Build(samplePkg(), files)
		if err != nil {
			t.Fatal(err)
		}
		blobs[i] = b
	}
	want := func(i int) []File {
		_, files, err := Extract(blobs[i])
		if err != nil {
			t.Fatal(err)
		}
		return files
	}
	wants := [2][]File{want(0), want(1)}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 50 {
				k := (g + i) % 2
				if i%7 == 0 {
					_, _, _ = Extract(blobs[k][:len(blobs[k])/2])
				}
				_, files, err := Extract(blobs[k])
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(files, wants[k]) {
					errs <- fmt.Errorf("goroutine %d, extraction %d: files differ", g, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestEmptyFileAndNoFiles(t *testing.T) {
	blob, err := Build(samplePkg(), []File{{Path: "/usr/share/empty", Data: nil}})
	if err != nil {
		t.Fatal(err)
	}
	_, files, err := Extract(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || len(files[0].Data) != 0 {
		t.Fatalf("files = %+v", files)
	}
	blob2, err := Build(samplePkg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, files2, err := Extract(blob2)
	if err != nil || len(files2) != 0 {
		t.Fatalf("no-files package: %v, %d files", err, len(files2))
	}
}

// TestQuickRoundTrip: arbitrary file contents survive the build/extract
// round trip.
func TestQuickRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	err := quick.Check(func(contents [][]byte) bool {
		if len(contents) > 20 {
			contents = contents[:20]
		}
		var files []File
		for i, c := range contents {
			files = append(files, File{
				Path: "/data/file-" + string(rune('a'+i%26)) + string(rune('0'+i/26)),
				Data: c,
			})
		}
		blob, err := Build(samplePkg(), files)
		if err != nil {
			return false
		}
		_, got, err := Extract(blob)
		if err != nil || len(got) != len(files) {
			return false
		}
		byPath := map[string][]byte{}
		for _, f := range got {
			byPath[f.Path] = f.Data
		}
		for _, f := range files {
			if !bytes.Equal(byPath[f.Path], f.Data) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50, Rand: rng})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuild(b *testing.B) {
	files := make([]File, 50)
	rng := rand.New(rand.NewSource(2))
	for i := range files {
		data := make([]byte, 4096)
		rng.Read(data)
		files[i] = File{Path: "/usr/lib/pkg/file-" + string(rune('a'+i%26)), Data: data}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(samplePkg(), files); err != nil {
			b.Fatal(err)
		}
	}
}
