package fstree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"expelliarmus/internal/vdisk"
)

func newFS(t *testing.T, size int64) *FS {
	t.Helper()
	d := vdisk.New("test", size, vdisk.DefaultClusterSize)
	fs, err := Format(d, 1024)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestWriteReadFile(t *testing.T) {
	fs := newFS(t, 4<<20)
	data := []byte("hello filesystem")
	if err := fs.WriteFile("/etc/hostname", nil); err == nil {
		t.Fatal("write without parent dir succeeded")
	}
	if err := fs.MkdirAll("/etc"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/etc/hostname", data); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/etc/hostname")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("ReadFile = %q", got)
	}
	if fs.NumFiles() != 1 {
		t.Fatalf("NumFiles = %d, want 1", fs.NumFiles())
	}
}

func TestWriteFileReplace(t *testing.T) {
	fs := newFS(t, 4<<20)
	fs.MkdirAll("/var")
	big := bytes.Repeat([]byte{1}, 100000)
	if err := fs.WriteFile("/var/log", big); err != nil {
		t.Fatal(err)
	}
	used := fs.UsedBytes()
	small := []byte("tiny")
	if err := fs.WriteFile("/var/log", small); err != nil {
		t.Fatal(err)
	}
	if got, _ := fs.ReadFile("/var/log"); !bytes.Equal(got, small) {
		t.Fatalf("replace failed: %q", got)
	}
	if fs.UsedBytes() >= used {
		t.Fatalf("UsedBytes %d did not shrink from %d after replacing big file", fs.UsedBytes(), used)
	}
	if fs.NumFiles() != 1 {
		t.Fatalf("NumFiles = %d after replace, want 1", fs.NumFiles())
	}
}

func TestEmptyFile(t *testing.T) {
	fs := newFS(t, 1<<20)
	if err := fs.WriteFile("/empty", nil); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/empty")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty file read %d bytes", len(got))
	}
	fi, err := fs.Stat("/empty")
	if err != nil || fi.Size != 0 || fi.IsDir {
		t.Fatalf("Stat = %+v, %v", fi, err)
	}
}

func TestMkdirAllIdempotentAndNested(t *testing.T) {
	fs := newFS(t, 4<<20)
	if err := fs.MkdirAll("/a/b/c/d"); err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll("/a/b/c/d"); err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll("/a/b"); err != nil {
		t.Fatal(err)
	}
	if fs.dirs != 5 { // root + a,b,c,d
		t.Fatalf("NumDirs = %d, want 5", fs.dirs)
	}
	fi, err := fs.Stat("/a/b/c")
	if err != nil || !fi.IsDir {
		t.Fatalf("Stat /a/b/c = %+v, %v", fi, err)
	}
}

func TestMkdirOverFileFails(t *testing.T) {
	fs := newFS(t, 1<<20)
	fs.WriteFile("/x", []byte("f"))
	if err := fs.MkdirAll("/x/y"); err == nil {
		t.Fatal("MkdirAll through a file succeeded")
	}
}

func TestReadDirSorted(t *testing.T) {
	fs := newFS(t, 4<<20)
	fs.MkdirAll("/d")
	names := []string{"zeta", "alpha", "mid"}
	for _, n := range names {
		fs.WriteFile("/d/"+n, []byte(n))
	}
	infos, err := fs.ReadDir("/d")
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 3 {
		t.Fatalf("ReadDir returned %d entries", len(infos))
	}
	want := []string{"/d/alpha", "/d/mid", "/d/zeta"}
	for i, fi := range infos {
		if fi.Path != want[i] {
			t.Fatalf("entry %d = %q, want %q", i, fi.Path, want[i])
		}
	}
}

func TestRemove(t *testing.T) {
	fs := newFS(t, 4<<20)
	fs.MkdirAll("/dir")
	fs.WriteFile("/dir/f", bytes.Repeat([]byte{2}, 50000))
	used := fs.UsedBytes()
	if err := fs.Remove("/dir"); err == nil {
		t.Fatal("removed non-empty directory")
	}
	if err := fs.Remove("/dir/f"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/dir/f") {
		t.Fatal("file exists after Remove")
	}
	if fs.UsedBytes() >= used {
		t.Fatal("blocks not reclaimed")
	}
	if err := fs.Remove("/dir"); err != nil {
		t.Fatalf("removing now-empty dir: %v", err)
	}
	if err := fs.Remove("/dir"); err == nil {
		t.Fatal("double remove succeeded")
	}
	if fs.NumFiles() != 0 || fs.dirs != 1 {
		t.Fatalf("counts = %d files, %d dirs", fs.NumFiles(), fs.dirs)
	}
}

func TestRemoveAll(t *testing.T) {
	fs := newFS(t, 4<<20)
	paths := []string{"/usr/bin/tool", "/usr/bin/other", "/usr/lib/libx", "/usr/share/doc/readme"}
	for _, p := range paths {
		fs.MkdirAll(p[:strings.LastIndex(p, "/")])
		fs.WriteFile(p, []byte(p))
	}
	if err := fs.RemoveAll("/usr"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/usr") {
		t.Fatal("/usr survived RemoveAll")
	}
	if fs.NumFiles() != 0 {
		t.Fatalf("NumFiles = %d", fs.NumFiles())
	}
	// Removing a missing path is not an error.
	if err := fs.RemoveAll("/nothing/here"); err != nil {
		t.Fatal(err)
	}
}

func TestDiskShrinksOnRemove(t *testing.T) {
	d := vdisk.New("shrink", 8<<20, vdisk.DefaultClusterSize)
	fs, err := Format(d, 512)
	if err != nil {
		t.Fatal(err)
	}
	fs.MkdirAll("/data")
	payload := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(payload)
	fs.WriteFile("/data/big", payload)
	allocated := d.AllocatedBytes()
	fs.Remove("/data/big")
	if d.AllocatedBytes() >= allocated {
		t.Fatalf("disk allocation %d did not shrink from %d", d.AllocatedBytes(), allocated)
	}
}

func TestWalkVisitsEverything(t *testing.T) {
	fs := newFS(t, 4<<20)
	files := []string{"/a/1", "/a/2", "/a/b/3", "/c/4"}
	for _, p := range files {
		fs.MkdirAll(p[:strings.LastIndex(p, "/")])
		fs.WriteFile(p, []byte(p))
	}
	var gotFiles, gotDirs []string
	err := fs.Walk("/", func(fi FileInfo) error {
		if fi.IsDir {
			gotDirs = append(gotDirs, fi.Path)
		} else {
			gotFiles = append(gotFiles, fi.Path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(gotFiles)
	if fmt.Sprint(gotFiles) != fmt.Sprint(files) {
		t.Fatalf("Walk files = %v, want %v", gotFiles, files)
	}
	wantDirs := []string{"/a", "/a/b", "/c"}
	sort.Strings(gotDirs)
	if fmt.Sprint(gotDirs) != fmt.Sprint(wantDirs) {
		t.Fatalf("Walk dirs = %v, want %v", gotDirs, wantDirs)
	}
}

func TestWalkSubtreeAndAbort(t *testing.T) {
	fs := newFS(t, 4<<20)
	fs.MkdirAll("/a/b")
	fs.WriteFile("/a/b/f", []byte("x"))
	fs.WriteFile("/top", []byte("y"))
	count := 0
	fs.Walk("/a", func(fi FileInfo) error {
		count++
		return nil
	})
	if count != 2 { // /a/b and /a/b/f
		t.Fatalf("subtree walk visited %d, want 2", count)
	}
	sentinel := fmt.Errorf("stop")
	err := fs.Walk("/", func(fi FileInfo) error { return sentinel })
	if err != sentinel {
		t.Fatalf("Walk abort error = %v", err)
	}
}

func TestMountRoundTrip(t *testing.T) {
	d := vdisk.New("persist", 8<<20, vdisk.DefaultClusterSize)
	fs, err := Format(d, 512)
	if err != nil {
		t.Fatal(err)
	}
	fs.MkdirAll("/etc/apt")
	fs.WriteFile("/etc/apt/sources.list", []byte("deb http://archive"))
	fs.WriteFile("/etc/hostname", []byte("vm-1"))
	fs.MkdirAll("/var/cache")

	// Serialize the disk, reload it and mount the filesystem again.
	img := d.Serialize()
	d2, err := vdisk.Deserialize("restored", img)
	if err != nil {
		t.Fatal(err)
	}
	fs2, err := Mount(d2)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := fs2.ReadFile("/etc/apt/sources.list"); string(got) != "deb http://archive" {
		t.Fatalf("file content lost: %q", got)
	}
	if fs2.NumFiles() != fs.NumFiles() || fs2.dirs != fs.dirs {
		t.Fatalf("counts differ after mount: %d/%d vs %d/%d",
			fs2.NumFiles(), fs2.dirs, fs.NumFiles(), fs.dirs)
	}
	if fs2.UsedBytes() != fs.UsedBytes() {
		t.Fatalf("UsedBytes %d != %d", fs2.UsedBytes(), fs.UsedBytes())
	}
	// The remounted filesystem is fully writable.
	if err := fs2.WriteFile("/etc/motd", []byte("welcome")); err != nil {
		t.Fatal(err)
	}
}

func TestMountRejectsUnformatted(t *testing.T) {
	d := vdisk.New("raw", 1<<20, vdisk.DefaultClusterSize)
	if _, err := Mount(d); err == nil {
		t.Fatal("mounted unformatted disk")
	}
}

func TestOutOfSpace(t *testing.T) {
	d := vdisk.New("tinydisk", 64<<10, vdisk.DefaultClusterSize)
	fs, err := Format(d, 32) // tiny disk, small inode table
	if err != nil {
		t.Fatal(err)
	}
	fs.MkdirAll("/d")
	err = fs.WriteFile("/d/huge", make([]byte, 1<<20))
	if err == nil {
		t.Fatal("write beyond capacity succeeded")
	}
	// The failed write must not leak blocks permanently beyond what a
	// retry needs: a small file still fits.
	if err := fs.WriteFile("/d/small", []byte("ok")); err != nil {
		t.Fatalf("small write after ENOSPC failed: %v", err)
	}
}

func TestOutOfInodes(t *testing.T) {
	d := vdisk.New("tiny", 4<<20, vdisk.DefaultClusterSize)
	fs, err := Format(d, 4) // root + 3 more
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := fs.WriteFile(fmt.Sprintf("/f%d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.WriteFile("/f3", []byte("x")); err == nil {
		t.Fatal("exceeded inode limit")
	}
	// Freeing an inode makes room again.
	fs.Remove("/f0")
	if err := fs.WriteFile("/f3", []byte("x")); err != nil {
		t.Fatalf("write after inode free failed: %v", err)
	}
}

func TestLargeFileMultiBlock(t *testing.T) {
	fs := newFS(t, 8<<20)
	data := make([]byte, 777777) // many blocks, non-aligned tail
	rand.New(rand.NewSource(2)).Read(data)
	if err := fs.WriteFile("/big", data); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/big")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("large file corrupted")
	}
}

func TestFragmentedAllocation(t *testing.T) {
	fs := newFS(t, 2<<20)
	// Fill the disk with alternating files, then delete every other one to
	// fragment free space.
	var small [][]byte
	for i := 0; i < 40; i++ {
		data := bytes.Repeat([]byte{byte(i)}, 3*fs.blockSize)
		small = append(small, data)
		if err := fs.WriteFile(fmt.Sprintf("/f%02d", i), data); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i += 2 {
		fs.Remove(fmt.Sprintf("/f%02d", i))
	}
	// A file needing several separated runs must still be writable via
	// multi-extent allocation.
	data := bytes.Repeat([]byte{0xCC}, 9*fs.blockSize)
	if err := fs.WriteFile("/frag", data); err != nil {
		t.Fatal(err)
	}
	got, _ := fs.ReadFile("/frag")
	if !bytes.Equal(got, data) {
		t.Fatal("fragmented file corrupted")
	}
	// Remaining odd files are intact.
	if got, _ := fs.ReadFile("/f01"); !bytes.Equal(got, small[1]) {
		t.Fatal("unrelated file corrupted by fragmented write")
	}
}

func TestStatPaths(t *testing.T) {
	fs := newFS(t, 1<<20)
	fs.MkdirAll("/a")
	fs.WriteFile("/a/f", []byte("data"))
	fi, err := fs.Stat("a/f") // no leading slash
	if err != nil || fi.Size != 4 {
		t.Fatalf("Stat relative = %+v, %v", fi, err)
	}
	if _, err := fs.Stat("/missing"); err == nil {
		t.Fatal("Stat of missing path succeeded")
	}
	root, err := fs.Stat("/")
	if err != nil || !root.IsDir {
		t.Fatalf("Stat / = %+v, %v", root, err)
	}
}

// TestQuickWriteReadRemove: arbitrary file sets round-trip and removal
// restores the original used-byte count.
func TestQuickWriteReadRemove(t *testing.T) {
	err := quick.Check(func(contents [][]byte) bool {
		if len(contents) > 30 {
			contents = contents[:30]
		}
		d := vdisk.New("q", 16<<20, vdisk.DefaultClusterSize)
		fs, err := Format(d, 256)
		if err != nil {
			return false
		}
		if err := fs.MkdirAll("/data"); err != nil {
			return false
		}
		base := fs.UsedBytes()
		for i, c := range contents {
			if len(c) > 100000 {
				c = c[:100000]
			}
			if err := fs.WriteFile(fmt.Sprintf("/data/f%03d", i), c); err != nil {
				return false
			}
		}
		for i, c := range contents {
			if len(c) > 100000 {
				c = c[:100000]
			}
			got, err := fs.ReadFile(fmt.Sprintf("/data/f%03d", i))
			if err != nil || !bytes.Equal(got, c) {
				return false
			}
		}
		for i := range contents {
			if err := fs.Remove(fmt.Sprintf("/data/f%03d", i)); err != nil {
				return false
			}
		}
		// All data blocks returned; only /data's (possibly re-sized) dir
		// entries and metadata remain.
		return fs.UsedBytes() <= base
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

// TestQuickMountInvariance: after arbitrary operations, a serialize →
// deserialize → mount round trip preserves every file.
func TestQuickMountInvariance(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := vdisk.New("q", 16<<20, vdisk.DefaultClusterSize)
		fs, err := Format(d, 512)
		if err != nil {
			return false
		}
		want := map[string][]byte{}
		for i := 0; i < 50; i++ {
			dir := fmt.Sprintf("/d%d", rng.Intn(5))
			fs.MkdirAll(dir)
			p := fmt.Sprintf("%s/f%d", dir, rng.Intn(20))
			data := make([]byte, rng.Intn(20000))
			rng.Read(data)
			if rng.Intn(4) == 0 {
				fs.RemoveAll(p)
				delete(want, p)
			} else if err := fs.WriteFile(p, data); err == nil {
				want[p] = data
			}
		}
		d2, err := vdisk.Deserialize("r", d.Serialize())
		if err != nil {
			return false
		}
		fs2, err := Mount(d2)
		if err != nil {
			return false
		}
		for p, data := range want {
			got, err := fs2.ReadFile(p)
			if err != nil || !bytes.Equal(got, data) {
				return false
			}
		}
		return fs2.NumFiles() == len(want)
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWriteFile(b *testing.B) {
	d := vdisk.New("bench", 1<<30, vdisk.DefaultClusterSize)
	fs, err := Format(d, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	fs.MkdirAll("/bench")
	data := make([]byte, 8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fs.WriteFile(fmt.Sprintf("/bench/f%d", i), data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWalk(b *testing.B) {
	d := vdisk.New("bench", 64<<20, vdisk.DefaultClusterSize)
	fs, _ := Format(d, 4096)
	for i := 0; i < 30; i++ {
		dir := fmt.Sprintf("/dir%02d", i)
		fs.MkdirAll(dir)
		for j := 0; j < 30; j++ {
			fs.WriteFile(fmt.Sprintf("%s/f%02d", dir, j), []byte("content"))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		fs.Walk("/", func(fi FileInfo) error { n++; return nil })
	}
}
