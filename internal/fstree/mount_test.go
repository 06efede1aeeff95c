package fstree

import (
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"expelliarmus/internal/vdisk"
)

// Superblock field offsets.
const (
	sbTotal     = 8
	sbBitmapBlk = 12
	sbInodeBlk  = 16
	sbMaxInodes = 20
)

// smallImage formats a 256-block filesystem of 512-byte blocks holding a
// directory and a file: superblock, one bitmap block, four inode-table
// blocks, data from block 6.
func smallImage(t testing.TB) *vdisk.Disk {
	t.Helper()
	d := vdisk.New("small", 256*512, 512)
	fs, err := Format(d, 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll("/etc"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/etc/hostname", []byte("guest")); err != nil {
		t.Fatal(err)
	}
	return d
}

func patch32(t testing.TB, d *vdisk.Disk, off int64, v uint32) {
	t.Helper()
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	if _, err := d.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// TestMountValidatesGeometry: a superblock whose counts the disk cannot
// back is an error before anything is sized or indexed by them. The first
// two rows are the reproducers that killed the server: a bitmap count that
// ran the process out of memory, and a block count that indexed past a
// one-block bitmap.
func TestMountValidatesGeometry(t *testing.T) {
	for _, tc := range []struct {
		name  string
		field int64
		value uint32
		want  string
	}{
		{"bitmap blocks out of memory", sbBitmapBlk, 0xFFFFFFFF, "bitmap blocks"},
		{"blocks past the bitmap", sbTotal, 1 << 30, "blocks of 512 bytes"},
		{"one block past the disk", sbTotal, 257, "blocks of 512 bytes"},
		{"no bitmap", sbBitmapBlk, 0, "bitmap blocks"},
		{"bitmap larger than needed", sbBitmapBlk, 2, "bitmap blocks"},
		{"fewer blocks than metadata", sbTotal, 6, "exceeds disk"},
		{"inodes past their table", sbMaxInodes, 33, "inode-table blocks"},
		{"inode count overflowing 32 bits", sbMaxInodes, 0xFFFFFFFF, "inode-table blocks"},
		{"no inode table", sbInodeBlk, 0, "inode-table blocks"},
		{"inode table covering the disk", sbInodeBlk, 254, "exceeds disk"},
		{"inode table past the disk", sbInodeBlk, 0xFFFFFFFF, "exceeds disk"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := smallImage(t)
			patch32(t, d, tc.field, tc.value)
			_, err := Mount(d)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Mount = %v, want an error naming %q", err, tc.want)
			}
		})
	}
	// An inode table with room to spare is what Format writes whenever
	// maxInodes does not fill its last block.
	d := smallImage(t)
	patch32(t, d, sbMaxInodes, 30)
	fs, err := Mount(d)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := fs.ReadFile("/etc/hostname"); err != nil || string(got) != "guest" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
}

// TestCorruptInodeIsAnError: extents index the bitmap when freed and a
// size sizes a buffer when read, so an inode that points outside the data
// area or claims more bytes than its extents hold is refused when read.
func TestCorruptInodeIsAnError(t *testing.T) {
	for _, tc := range []struct {
		name  string
		patch func(t *testing.T, fs *FS, d *vdisk.Disk, off int64)
	}{
		{"extent past the disk", func(t *testing.T, fs *FS, d *vdisk.Disk, off int64) {
			patch32(t, d, off+10, 250)
			patch32(t, d, off+14, 7)
		}},
		{"extent in the metadata", func(t *testing.T, fs *FS, d *vdisk.Disk, off int64) {
			patch32(t, d, off+10, 1)
		}},
		{"extent length wrapping 32 bits", func(t *testing.T, fs *FS, d *vdisk.Disk, off int64) {
			patch32(t, d, off+14, 0xFFFFFFFF)
		}},
		{"negative size", func(t *testing.T, fs *FS, d *vdisk.Disk, off int64) {
			patch32(t, d, off+2, 0x80000000)
		}},
		{"size past the extents", func(t *testing.T, fs *FS, d *vdisk.Disk, off int64) {
			patch32(t, d, off+6, 513)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := smallImage(t)
			fs, err := Mount(d)
			if err != nil {
				t.Fatal(err)
			}
			num, _, err := fs.lookup("/etc/hostname")
			if err != nil {
				t.Fatal(err)
			}
			tc.patch(t, fs, d, fs.inodeOffset(num))
			// The image off the wire: an FS serves the inodes it has
			// already validated, so the patched one is read by a new mount.
			if fs, err = Mount(d); err != nil {
				t.Fatal(err)
			}
			if _, err := fs.ReadFile("/etc/hostname"); err == nil || !strings.Contains(err.Error(), "corrupt") {
				t.Fatalf("ReadFile = %v, want a corrupt-inode error", err)
			}
			if err := fs.Remove("/etc/hostname"); err == nil {
				t.Fatal("Remove freed the extents of a corrupt inode")
			}
		})
	}
}

// cyclicImage is smallImage with one forged entry: /etc/loop names the
// inode of /etc itself, so every descent into /etc can go on forever.
func cyclicImage(t testing.TB) *vdisk.Disk {
	t.Helper()
	d := smallImage(t)
	fs, err := Mount(d)
	if err != nil {
		t.Fatal(err)
	}
	etc, _, err := fs.lookup("/etc")
	if err != nil {
		t.Fatal(err)
	}
	entries, ino, err := fs.readDirents(etc)
	if err != nil {
		t.Fatal(err)
	}
	entries = append(entries, dirent{ino: etc, mode: modeDir, name: "loop"})
	if err := fs.writeDirents(etc, ino, entries); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestCyclicDirectoryBounded: a directory entry pointing back at its
// ancestor used to send Walk and RemoveAll into unbounded recursion (a
// fatal stack overflow, not a recoverable panic). Both now stop with an
// error once the descent is deeper than any legal tree on this
// filesystem could be.
func TestCyclicDirectoryBounded(t *testing.T) {
	fs, err := Mount(cyclicImage(t))
	if err != nil {
		t.Fatal(err)
	}
	visited := 0
	err = fs.Walk("/", func(FileInfo) error { visited++; return nil })
	if err == nil || !strings.Contains(err.Error(), "points at its ancestor") {
		t.Fatalf("Walk over a cyclic tree = %v after %d entries, want the depth error", err, visited)
	}
	if err := fs.RemoveAll("/etc"); err == nil || !strings.Contains(err.Error(), "points at its ancestor") {
		t.Fatalf("RemoveAll over a cyclic tree = %v, want the depth error", err)
	}
	// The bound is not in a legal tree's way: a chain as deep as the
	// directory count walks and removes cleanly.
	fs, err = Mount(smallImage(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll("/a/b/c/d/e/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Walk("/", func(FileInfo) error { return nil }); err != nil {
		t.Fatalf("Walk over a deep legal tree: %v", err)
	}
	if err := fs.RemoveAll("/"); err != nil {
		t.Fatalf("RemoveAll over a deep legal tree: %v", err)
	}
	if fs.dirs != 1 || fs.files != 0 {
		t.Fatalf("after RemoveAll(/): %d dirs, %d files", fs.dirs, fs.files)
	}
}

// FuzzMount writes arbitrary bytes over the first clusters of a small disk
// — superblock, bitmap, inode table and the first data blocks — and mounts
// it: Mount returns an error or a filesystem whose operations return, it
// never panics, and it never allocates more than the disk could justify.
func FuzzMount(f *testing.F) {
	valid := make([]byte, 8*512)
	if _, err := smallImage(f).ReadAt(valid, 0); err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Fuzz(func(t *testing.T, first []byte) {
		d := vdisk.New("fuzz", 256*512, 512)
		if len(first) > 64*512 {
			first = first[:64*512]
		}
		if _, err := d.WriteAt(first, 0); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fs, err := Mount(d)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
			t.Fatalf("Mount of a 128 KiB disk allocated %d bytes", grew)
		}
		if err != nil {
			return
		}
		// Every result below may be an error; none may be a panic.
		_, _ = fs.ReadDir("/")
		_ = fs.MkdirAll("/fuzz/dir")
		_ = fs.WriteFile("/fuzz/dir/file", make([]byte, 3000))
		_, _ = fs.ReadFile("/fuzz/dir/file")
		_, _ = fs.Stat("/etc/hostname")
		_, _ = fs.ReadFile("/etc/hostname")
		_ = fs.WriteFile("/etc/hostname", []byte("replaced"))
		_ = fs.Remove("/etc/hostname")
		_ = fs.Remove("/fuzz/dir/file")
		_ = fs.Walk("/", func(FileInfo) error { return nil })
		_ = fs.RemoveAll("/etc")
	})
}
