package fstree

import (
	"bytes"
	"fmt"
	"math/rand"
	"path"
	"reflect"
	"sync"
	"testing"

	"expelliarmus/internal/vdisk"
)

// lazyMount serializes d, reopens it with vdisk.DeserializeLazy over a
// counting source, so every read of an untouched cluster reaches the
// source, and mounts it.
func lazyMount(t *testing.T, d *vdisk.Disk) (*FS, *countingReaderAt) {
	t.Helper()
	img := d.Serialize()
	src := &countingReaderAt{ra: bytes.NewReader(img)}
	lazy, err := vdisk.DeserializeLazy("lazy", src, int64(len(img)))
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(lazy)
	if err != nil {
		t.Fatal(err)
	}
	return fs, src
}

// deepImage holds a chain of directories /a/b/c/d/e with one file at its
// end.
func deepImage(t *testing.T) *vdisk.Disk {
	t.Helper()
	fs := newFS(t, 4<<20)
	if err := fs.MkdirAll("/a/b/c/d/e"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/a/b/c/d/e/f", []byte("leaf")); err != nil {
		t.Fatal(err)
	}
	return fs.Disk()
}

// TestResolvedPathsReadNoDisk counts source reads, not time: once a deep
// path has been resolved, resolving it or any of its prefixes again,
// stating them and listing them reads nothing more from the disk.
func TestResolvedPathsReadNoDisk(t *testing.T) {
	fs, src := lazyMount(t, deepImage(t))
	if !fs.Exists("/a/b/c/d/e/f") {
		t.Fatal("deep file missing")
	}
	dirs := []string{"/", "/a", "/a/b", "/a/b/c", "/a/b/c/d", "/a/b/c/d/e"}
	src.reads.Store(0)
	for i := 0; i < 100; i++ {
		switch dir := dirs[i%len(dirs)]; i % 3 {
		case 0:
			if !fs.Exists("/a/b/c/d/e/f") {
				t.Fatal("deep file vanished")
			}
		case 1:
			if fi, err := fs.Stat(dir); err != nil || !fi.IsDir {
				t.Fatalf("Stat(%s) = %+v, %v", dir, fi, err)
			}
		case 2:
			if infos, err := fs.ReadDir(dir); err != nil || len(infos) != 1 {
				t.Fatalf("ReadDir(%s) = %v, %v", dir, infos, err)
			}
		}
	}
	reads := src.reads.Load()
	t.Logf("source reads for 100 lookups of resolved paths: %d", reads)
	if reads != 0 {
		t.Fatalf("100 lookups of resolved paths read the source %d times, want 0", reads)
	}
}

// TestWalkReadsDirectoryDataOnly counts source reads: a whole-tree Walk of
// a fresh lazy mount reads each cluster of directory data once and no
// inode at all, because Mount's one read of the inode table serves them.
func TestWalkReadsDirectoryDataOnly(t *testing.T) {
	base, err := Format(vdisk.New("tree", 4<<20, 512), 512)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := base.MkdirAll(fmt.Sprintf("/d%d/sub", i)); err != nil {
			t.Fatal(err)
		}
		// Forty entries take two 512-byte clusters of directory data.
		for j := 0; j < 40; j++ {
			if err := base.WriteFile(fmt.Sprintf("/d%d/file-%03d", i, j), []byte("data")); err != nil {
				t.Fatal(err)
			}
		}
	}
	dirClusters, entries := 0, 0
	if err := base.Walk("/", func(fi FileInfo) error { entries++; return nil }); err != nil {
		t.Fatal(err)
	}
	for num := uint32(0); num < base.maxInodes; num++ {
		if ino, err := base.readInode(num); err == nil && ino.mode == modeDir {
			for _, e := range ino.extents() {
				dirClusters += int(e.blocks)
			}
		}
	}
	fs, src := lazyMount(t, base.Disk())
	src.reads.Store(0)
	walked := 0
	if err := fs.Walk("/", func(fi FileInfo) error { walked++; return nil }); err != nil {
		t.Fatal(err)
	}
	reads := src.reads.Load()
	t.Logf("Walk of %d entries read the source %d times; directories hold %d clusters", walked, reads, dirClusters)
	if walked != entries || reads != int64(dirClusters) {
		t.Fatalf("Walk visited %d of %d entries with %d source reads, want one per cluster of directory data (%d)",
			walked, entries, reads, dirClusters)
	}
}

// snapshot is everything a mounted FS shows: Walk's entries in order, the
// bytes of every file, and whether each path of the schedule's pool
// resolves and reads.
type snapshot struct {
	walk  []FileInfo
	files map[string]string
	pool  map[string]string
}

func takeSnapshot(t *testing.T, fs *FS, pool []string) snapshot {
	t.Helper()
	s := snapshot{files: map[string]string{}, pool: map[string]string{}}
	if err := fs.Walk("/", func(fi FileInfo) error {
		s.walk = append(s.walk, fi)
		if !fi.IsDir {
			data, err := fs.ReadFile(fi.Path)
			if err != nil {
				return err
			}
			s.files[fi.Path] = string(data)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, p := range pool {
		data, err := fs.ReadFile(p)
		infos, derr := fs.ReadDir(p)
		s.pool[p] = fmt.Sprintf("exists=%v file=%q,%v dir=%v,%v", fs.Exists(p), data, err != nil, infos, derr != nil)
	}
	return s
}

// checkAgainstMount requires a fresh mount of fs's disk, which reads
// everything from the disk, to show what fs shows from its mirrors and cache.
func checkAgainstMount(t *testing.T, fs *FS, pool []string, step string) {
	t.Helper()
	fresh, err := Mount(fs.Disk())
	if err != nil {
		t.Fatalf("%s: remount: %v", step, err)
	}
	if got, want := takeSnapshot(t, fs, pool), takeSnapshot(t, fresh, pool); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: the caching FS disagrees with a fresh mount\ncached: %+v\n fresh: %+v", step, got, want)
	}
}

// TestFSMatchesFreshMount: over seeded schedules of MkdirAll, WriteFile (new
// and replace), Remove and RemoveAll on a lazily opened image, the FS that
// mirrors its inode table and caches directories shows after every step
// exactly what a fresh mount of the same disk reads. Operations may fail (a parent is
// missing, a directory is not empty); a failure must change nothing the
// two could disagree on either.
func TestFSMatchesFreshMount(t *testing.T) {
	var pool []string
	for _, a := range []string{"a", "b", "c"} {
		pool = append(pool, "/"+a)
		for _, b := range []string{"a", "b", "c"} {
			pool = append(pool, "/"+a+"/"+b)
			for _, c := range []string{"a", "b"} {
				pool = append(pool, "/"+a+"/"+b+"/"+c)
			}
		}
	}
	succeeded := map[string]int{}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base, err := Format(vdisk.New("base", 1<<20, 512), 96)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			p := pool[rng.Intn(len(pool))]
			if rng.Intn(2) == 0 {
				_ = base.MkdirAll(p)
			} else {
				_ = base.WriteFile(p, bytes.Repeat([]byte{byte(i)}, rng.Intn(1500)))
			}
		}
		fs, _ := lazyMount(t, base.Disk())
		for step := 0; step < 60; step++ {
			p := pool[rng.Intn(len(pool))]
			var op string
			existed := fs.Exists(p)
			switch rng.Intn(5) {
			case 0:
				op, err = "MkdirAll", fs.MkdirAll(p)
			case 1, 2:
				op, err = "WriteFile", fs.WriteFile(p, bytes.Repeat([]byte{byte(step)}, rng.Intn(1500)))
				if existed {
					op = "WriteFile (replace)"
				}
			case 3:
				op, err = "Remove", fs.Remove(p)
			case 4:
				op, err = "RemoveAll", fs.RemoveAll(p)
			}
			if err == nil && (existed || op != "RemoveAll") {
				succeeded[op]++
			}
			checkAgainstMount(t, fs, pool, fmt.Sprintf("seed %d step %d: %s(%s)", seed, step, op, p))
		}
	}
	for _, op := range []string{"MkdirAll", "WriteFile", "WriteFile (replace)", "Remove", "RemoveAll"} {
		if succeeded[op] == 0 {
			t.Errorf("no %s succeeded in any schedule: %v", op, succeeded)
		}
	}
	t.Logf("operations that succeeded: %v", succeeded)
}

// TestReusedDirectoryInodeListsEmpty: a directory's inode number freed by
// a removal and taken by a new directory lists as empty. Remove frees only
// empty directories, so the second half also frees a directory that still
// lists a file, with writeInode as a forged image's removal would: the
// cached listing must go with the inode, whatever it held.
func TestReusedDirectoryInodeListsEmpty(t *testing.T) {
	fs, _ := lazyMount(t, smallImage(t))
	if err := fs.MkdirAll("/x/y"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/x/y/f", []byte("file")); err != nil {
		t.Fatal(err)
	}
	y, _, err := fs.lookup("/x/y")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.RemoveAll("/x"); err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll("/z/y"); err != nil {
		t.Fatal(err)
	}
	if num, _, err := fs.lookup("/z/y"); err != nil || num != y {
		t.Fatalf("/z/y has inode %d (%v), want the freed %d", num, err, y)
	}
	checkAgainstMount(t, fs, []string{"/z", "/z/y", "/z/y/f"}, "directory inode reused after RemoveAll")

	if err := fs.WriteFile("/z/y/f", []byte("file")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadDir("/z/y"); err != nil {
		t.Fatal(err)
	}
	if err := fs.writeInode(y, inode{mode: modeFree}); err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll("/w"); err != nil {
		t.Fatal(err)
	}
	if infos, err := fs.ReadDir("/w"); err != nil || len(infos) != 0 {
		t.Fatalf("new directory on a freed inode lists %v, %v; want nothing", infos, err)
	}
	checkAgainstMount(t, fs, []string{"/w", "/w/f"}, "directory inode reused after a forged free")
}

// TestConcurrentFirstReads: goroutines reading one freshly mounted FS fill
// its caches at the same time. Under -race this is silent, and every
// goroutine reads what a lone reader of another mount reads.
func TestConcurrentFirstReads(t *testing.T) {
	base := newFS(t, 4<<20)
	var pool []string
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			p := fmt.Sprintf("/d%d/s%d/f", i, j)
			if err := base.MkdirAll(fmt.Sprintf("/d%d/s%d", i, j)); err != nil {
				t.Fatal(err)
			}
			if err := base.WriteFile(p, []byte(p)); err != nil {
				t.Fatal(err)
			}
			pool = append(pool, p, fmt.Sprintf("/d%d/s%d", i, j))
		}
	}
	ref, _ := lazyMount(t, base.Disk())
	want := takeSnapshot(t, ref, pool)
	fs, _ := lazyMount(t, base.Disk())
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := range pool {
				p := pool[(i*7+g*5)%len(pool)]
				data, err := fs.ReadFile(p)
				if err == nil && want.files[p] != string(data) {
					t.Errorf("ReadFile(%s) = %q, want %q", p, data, want.files[p])
				}
				if !fs.Exists(p) {
					t.Errorf("Exists(%s) = false", p)
				}
				if _, err := fs.ReadDir(path.Dir(p)); err != nil {
					t.Errorf("ReadDir(%s): %v", path.Dir(p), err)
				}
			}
			var walk []FileInfo
			if err := fs.Walk("/", func(fi FileInfo) error { walk = append(walk, fi); return nil }); err != nil || !reflect.DeepEqual(walk, want.walk) {
				t.Errorf("Walk = %v, %v; want %v", walk, err, want.walk)
			}
		}(g)
	}
	close(start)
	wg.Wait()
}
