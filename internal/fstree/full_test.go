package fstree

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"expelliarmus/internal/vdisk"
)

// TestFullDiskKeepsDirectory fills a 64 KiB disk by adding names to /d
// until one fails. The directory write that runs out of space must leave
// the directory as it was: a fresh Mount lists exactly the entries the
// mounted FS lists, and every file reads back its bytes on both.
func TestFullDiskKeepsDirectory(t *testing.T) {
	d := vdisk.New("full", 64<<10, vdisk.DefaultClusterSize)
	fs, err := Format(d, 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	for i := 0; ; i++ {
		name := fmt.Sprintf("/d/%03d-%s", i, strings.Repeat("n", 150))
		// Only a few early names carry data, so the write that runs out of
		// space is the directory's, grown past its blocks.
		var data []byte
		if i%16 == 0 && i < 48 {
			data = []byte(name[:7])
		}
		if err := fs.WriteFile(name, data); err != nil {
			if !strings.Contains(err.Error(), "no space") && !strings.Contains(err.Error(), "fragmented") {
				t.Fatalf("adding %s: %v", name, err)
			}
			break
		}
		want[name] = data
	}
	fresh, err := Mount(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []*FS{fs, fresh} {
		list, err := f.ReadDir("/d")
		if err != nil {
			t.Fatal(err)
		}
		if len(list) != len(want) {
			t.Fatalf("/d lists %d entries, %d were added", len(list), len(want))
		}
		for _, info := range list {
			data, ok := want[info.Path]
			if !ok {
				t.Fatalf("/d lists %q, which was never added", info.Path)
			}
			got, err := f.ReadFile(info.Path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("%s reads %q, wrote %q", info.Path, got, data)
			}
		}
	}
	if fresh.UsedBytes() != fs.UsedBytes() {
		t.Fatalf("a fresh Mount uses %d bytes, the FS %d", fresh.UsedBytes(), fs.UsedBytes())
	}
}

// TestFailedOverwriteKeepsFile overwrites a file with more than the disk
// holds: the write fails, the file keeps its old bytes, and its blocks
// stay allocated, so the next file cannot take them.
func TestFailedOverwriteKeepsFile(t *testing.T) {
	d := vdisk.New("full", 64<<10, vdisk.DefaultClusterSize)
	fs, err := Format(d, 32)
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Repeat([]byte("old!"), 2*vdisk.DefaultClusterSize/4)
	if err := fs.WriteFile("/f", old); err != nil {
		t.Fatal(err)
	}
	used := fs.UsedBytes()
	if err := fs.WriteFile("/f", make([]byte, 64<<10)); err == nil {
		t.Fatal("an overwrite larger than the disk succeeded")
	}
	if fs.UsedBytes() != used {
		t.Fatalf("the failed overwrite left %d bytes used, %d before it", fs.UsedBytes(), used)
	}
	_, ino, err := fs.lookup("/f")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ino.extents() {
		for b := e.start; b < e.start+e.blocks; b++ {
			if !fs.blockUsed(b) {
				t.Fatalf("block %d of /f is free after the failed overwrite", b)
			}
		}
	}
	// Fill what is left: no block of /f may be handed out.
	free := 64<<10 - int(used) - vdisk.DefaultClusterSize // the root directory's next block
	if err := fs.WriteFile("/g", bytes.Repeat([]byte{'g'}, free)); err != nil {
		t.Fatal(err)
	}
	fresh, err := Mount(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []*FS{fs, fresh} {
		got, err := f.ReadFile("/f")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, old) {
			t.Fatalf("/f lost its bytes after a failed overwrite (%d bytes, %d written)", len(got), len(old))
		}
	}
}
