package fstree

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"expelliarmus/internal/vdisk"
)

// TestCloneOntoListingsIsolated: a template and two CloneOnto copies share
// their listings, yet names added to or removed from a shared directory in
// any one of them, again and again so later edits go in place, never show
// in the others, and each still shows what a fresh mount of its disk reads.
func TestCloneOntoListingsIsolated(t *testing.T) {
	tmpl, err := Format(vdisk.New("tmpl", 1<<20, 512), 256)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/etc/b", "/etc/d", "/etc/f", "/usr/lib/x"} {
		if err := tmpl.MkdirAll(p); err != nil {
			t.Fatal(err)
		}
		if err := tmpl.WriteFile(p+"/file", []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	pool := []string{"/etc", "/etc/a", "/etc/b", "/etc/c", "/etc/d", "/etc/e", "/usr", "/usr/lib", "/usr/lib/y"}
	a := tmpl.CloneOnto(tmpl.Disk().Clone("a"))
	b := tmpl.CloneOnto(tmpl.Disk().Clone("b"))
	all := []*FS{tmpl, a, b}
	want := make([]snapshot, len(all))
	for i, fs := range all {
		want[i] = takeSnapshot(t, fs, pool)
	}
	edits := []func(fs *FS, tag string) error{
		func(fs *FS, tag string) error { return fs.WriteFile("/etc/c", []byte(tag)) }, // between b and d
		func(fs *FS, tag string) error { return fs.MkdirAll("/etc/a") },               // first
		func(fs *FS, tag string) error { return fs.WriteFile("/etc/g", []byte(tag)) }, // last
		func(fs *FS, tag string) error { return fs.RemoveAll("/etc/d") },
		func(fs *FS, tag string) error { return fs.WriteFile("/usr/lib/y", []byte(tag)) },
		func(fs *FS, tag string) error { return fs.Remove("/etc/c") },
		func(fs *FS, tag string) error { return fs.WriteFile("/etc/e", []byte(tag)) },
	}
	for i, fs := range all {
		for k, edit := range edits {
			if err := edit(fs, fmt.Sprint("fs", i)); err != nil {
				t.Fatalf("fs %d, edit %d: %v", i, k, err)
			}
			checkAgainstMount(t, fs, pool, fmt.Sprintf("fs %d, edit %d", i, k))
			want[i] = takeSnapshot(t, fs, pool)
			for j, o := range all {
				if got := takeSnapshot(t, o, pool); !reflect.DeepEqual(got, want[j]) {
					t.Fatalf("fs %d, edit %d changed fs %d\n got: %+v\nwant: %+v", i, k, j, got, want[j])
				}
			}
		}
	}
}

// TestCloneOntoConcurrentEdits: goroutines copy one template at once, as
// the base memo's readers do, and each edits the shared directories of its
// own copy; every copy reads its own edits, and the template stays as it
// was. Run it under -race: copies share no buffer they write.
func TestCloneOntoConcurrentEdits(t *testing.T) {
	tmpl, err := Format(vdisk.New("tmpl", 1<<20, 512), 256)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/etc/b/file", "/etc/d/file", "/usr/lib/x"} {
		if err := tmpl.MkdirAll(p); err != nil {
			t.Fatal(err)
		}
	}
	pool := []string{"/etc", "/etc/a", "/etc/c", "/usr/lib", "/usr/lib/y"}
	want := takeSnapshot(t, tmpl, pool)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 10 {
				fs := tmpl.CloneOnto(tmpl.Disk().Clone("copy"))
				tag := []byte(fmt.Sprint(g, i))
				for _, p := range []string{"/etc/c", "/etc/a", "/usr/lib/y"} {
					if err := fs.WriteFile(p, tag); err != nil {
						t.Error(err)
						return
					}
				}
				if err := fs.Remove("/etc/c"); err != nil {
					t.Error(err)
					return
				}
				if got, err := fs.ReadFile("/etc/a"); err != nil || string(got) != string(tag) || fs.Exists("/etc/c") {
					t.Errorf("goroutine %d reads %q at its own write, %v", g, got, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := takeSnapshot(t, tmpl, pool); !reflect.DeepEqual(got, want) {
		t.Fatal("edits of concurrent copies changed their template")
	}
}

// TestFailedDirectoryWriteKeepsListing: on a full disk, adding names to a
// directory fails once the directory needs a block more; the failed call
// leaves the listing as it was, whether the name would have gone first, in
// the middle or last, and whether a file or a directory was added.
func TestFailedDirectoryWriteKeepsListing(t *testing.T) {
	for _, order := range []string{"first", "middle", "last"} {
		t.Run(order, func(t *testing.T) {
			fs, err := Format(vdisk.New("full", 64<<10, 512), 512)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []string{"/d/m000", "/d/m999"} {
				if err := fs.MkdirAll(p); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; fs.WriteFile(fmt.Sprintf("/fill%d", i), make([]byte, 512)) == nil; i++ {
			}
			failed := 0
			for i := range 200 {
				name := map[string]string{"first": "a", "middle": "m", "last": "z"}[order] + fmt.Sprintf("%03d", 199-i)
				before, err := fs.ReadDir("/d")
				if err != nil {
					t.Fatal(err)
				}
				if i%2 == 0 {
					err = fs.WriteFile("/d/"+name, nil)
				} else {
					err = fs.MkdirAll("/d/" + name)
				}
				if err == nil {
					continue
				}
				failed++
				if after, err := fs.ReadDir("/d"); err != nil || !reflect.DeepEqual(after, before) {
					t.Fatalf("adding %s failed, and the listing went from %v to %v (%v)", name, before, after, err)
				}
			}
			if failed == 0 {
				t.Fatal("no directory write failed: the disk never filled")
			}
		})
	}
}

// TestBitmapScanMatchesOracle: nextFree and runLen, which scan the bitmap a
// word at a time, give what a bit-by-bit scan gives on random bitmaps of
// every density, block counts that are no multiple of 64 and bitmaps whose
// length is no multiple of 8 bytes.
func TestBitmapScanMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	nextFree := func(fs *FS, b uint32) uint32 {
		for b < fs.total && fs.blockUsed(b) {
			b++
		}
		return b
	}
	runLen := func(fs *FS, b, limit uint32) uint32 {
		n := uint32(0)
		for n < limit && b+n < fs.total && !fs.blockUsed(b+n) {
			n++
		}
		return n
	}
	for round := range 300 {
		total := uint32(1 + rng.Intn(700))
		bs := 1 << rng.Intn(10) // a block size of 1 to 512 bytes
		fs := &FS{total: total, bitmap: make([]byte, (int(total)+8*bs-1)/(8*bs)*bs)}
		density := []float64{0, 0.05, 0.5, 0.95, 1}[round%5]
		for b := range fs.total {
			if rng.Float64() < density {
				fs.bitmap[b/8] |= 1 << (b % 8)
			}
		}
		for b := range total + 3 {
			if got, want := fs.nextFree(b), nextFree(fs, b); got != want {
				t.Fatalf("round %d (%d blocks, %d-byte bitmap): nextFree(%d) = %d, want %d", round, total, len(fs.bitmap), b, got, want)
			}
			for _, limit := range []uint32{0, 1, 7, 63, 64, 65, 200, total, uint32(rng.Intn(300))} {
				if got, want := fs.runLen(b, limit), runLen(fs, b, limit); got != want {
					t.Fatalf("round %d (%d blocks, %d-byte bitmap): runLen(%d, %d) = %d, want %d", round, total, len(fs.bitmap), b, limit, got, want)
				}
			}
		}
	}
}
