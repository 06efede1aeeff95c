package fstree

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"expelliarmus/internal/vdisk"
)

// The oracle is the allocation code this package had before it mirrored
// allocation state in memory, reading the disk and nothing else: the inode
// table scanned from inode 0, and every free run of the bitmap collected
// before one is chosen.

// diskTable reads the inode table from the disk.
func diskTable(t *testing.T, fs *FS) []byte {
	t.Helper()
	table := make([]byte, int(fs.maxInodes)*inodeSize)
	if _, err := fs.disk.ReadAt(table, fs.inodeOffset(0)); err != nil {
		t.Fatal(err)
	}
	return table
}

// diskModes reads the mode byte of every inode from the disk.
func diskModes(t *testing.T, fs *FS) []byte {
	t.Helper()
	table := diskTable(t, fs)
	modes := make([]byte, fs.maxInodes)
	for i := range modes {
		modes[i] = table[i*inodeSize]
	}
	return modes
}

func oracleAllocInode(t *testing.T, fs *FS) (uint32, bool) {
	t.Helper()
	i := bytes.IndexByte(diskModes(t, fs), modeFree)
	return uint32(max(i, 0)), i >= 0
}

func diskBitmap(t *testing.T, fs *FS) []byte {
	t.Helper()
	bitmap := make([]byte, int(fs.bitmapBlk)*fs.blockSize)
	if _, err := fs.disk.ReadAt(bitmap, int64(fs.blockSize)); err != nil {
		t.Fatal(err)
	}
	return bitmap
}

func oracleFindExtents(t *testing.T, fs *FS, n uint32) ([]extent, bool) {
	t.Helper()
	bitmap := diskBitmap(t, fs)
	used := func(b uint32) bool { return bitmap[b/8]&(1<<(b%8)) != 0 }
	var runs []extent
	b := fs.dataStart
	for b < fs.total {
		for b < fs.total && used(b) {
			b++
		}
		if b >= fs.total {
			break
		}
		start := b
		for b < fs.total && !used(b) {
			b++
		}
		runs = append(runs, extent{start: start, blocks: b - start})
	}
	for _, r := range runs {
		if r.blocks >= n {
			return []extent{{start: r.start, blocks: n}}, true
		}
	}
	sort.Slice(runs, func(i, j int) bool {
		if runs[i].blocks != runs[j].blocks {
			return runs[i].blocks > runs[j].blocks
		}
		return runs[i].start < runs[j].start
	})
	var out []extent
	remaining := n
	for _, r := range runs {
		if remaining == 0 {
			break
		}
		take := r.blocks
		if take > remaining {
			take = remaining
		}
		out = append(out, extent{start: r.start, blocks: take})
		remaining -= take
		if len(out) > maxExtents {
			return nil, false
		}
	}
	if remaining > 0 {
		return nil, false
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out, true
}

// checkAgainstOracle holds the filesystem's in-memory allocation state
// against the disk, and its allocators against the oracle's choices from
// that disk.
func checkAgainstOracle(t *testing.T, fs *FS, step string) {
	t.Helper()
	if !bytes.Equal(fs.bitmap, diskBitmap(t, fs)) {
		t.Fatalf("%s: bitmap mirror differs from the disk", step)
	}
	if !bytes.Equal(slices.Concat(fs.table...), diskTable(t, fs)) {
		t.Fatalf("%s: inode table mirror differs from the disk", step)
	}
	modes := diskModes(t, fs)
	files, dirs := bytes.Count(modes, []byte{modeFile}), bytes.Count(modes, []byte{modeDir})
	if fs.files != files || fs.dirs != dirs {
		t.Fatalf("%s: counts %d files %d dirs, disk has %d and %d", step, fs.files, fs.dirs, files, dirs)
	}
	// The cursors are checked before the allocators run: those advance them.
	wantIno, inoOK := oracleAllocInode(t, fs)
	if inoOK && fs.freeInode > wantIno {
		t.Fatalf("%s: inode cursor %d is past free inode %d", step, fs.freeInode, wantIno)
	}
	if one, ok := oracleFindExtents(t, fs, 1); ok && fs.freeBlock > one[0].start {
		t.Fatalf("%s: block cursor %d is past free block %d", step, fs.freeBlock, one[0].start)
	}
	gotIno, err := fs.allocInode()
	if (err == nil) != inoOK || gotIno != wantIno {
		t.Fatalf("%s: allocInode = %d, %v; oracle %d, %v", step, gotIno, err, wantIno, inoOK)
	}
	for _, n := range []uint32{1, 2, 3, 4, 6, 9, 17, 64, fs.total} {
		want, ok := oracleFindExtents(t, fs, n)
		got, err := fs.findExtents(n)
		if (err == nil) != ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: findExtents(%d) = %v, %v; oracle %v, %v", step, n, got, err, want, ok)
		}
	}
}

// TestScheduleMatchesOracle: after every step of the schedules — through
// the remount, the fill and the fragmented tail — the mirrors equal the
// disk and both allocators choose what the linear oracle chooses; the
// files written last really were placed by the fragmented fallback; and
// the checks, which advance the cursors, do not change the image.
func TestScheduleMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		fragmented := false
		checked := runSchedule(t, seed, func(fs *FS, step string) {
			checkAgainstOracle(t, fs, step)
			if p, ok := strings.CutPrefix(step, "frag "); ok {
				_, ino, err := fs.lookup(p)
				if err != nil {
					t.Fatal(err)
				}
				fragmented = fragmented || ino.n > 1
			}
		})
		if !fragmented {
			t.Errorf("seed %d: no file was placed by the fragmented fallback", seed)
		}
		if !bytes.Equal(checked, runSchedule(t, seed, nil)) {
			t.Errorf("seed %d: image differs between the checked and the unchecked run", seed)
		}
	}
}

// countingReaderAt counts the reads a lazy disk issues to its source,
// from any number of goroutines.
type countingReaderAt struct {
	ra    io.ReaderAt
	reads atomic.Int64
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	c.reads.Add(1)
	return c.ra.ReadAt(p, off)
}

// lazyCreateReads builds an image holding n files, opens it lazily, and
// returns the source reads that mounting it and creating n more files
// cost.
func lazyCreateReads(t *testing.T, n int) int {
	t.Helper()
	base, err := Format(vdisk.New("base", 8<<20, 512), uint32(2*n+16))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := base.WriteFile(fmt.Sprintf("/base%04d", i), []byte("base")); err != nil {
			t.Fatal(err)
		}
	}
	img := base.Disk().Serialize()
	src := &countingReaderAt{ra: bytes.NewReader(img)}
	d, err := vdisk.DeserializeLazy("lazy", src, int64(len(img)))
	if err != nil {
		t.Fatal(err)
	}
	src.reads.Store(0)
	fs, err := Mount(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll("/new"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := fs.WriteFile(fmt.Sprintf("/new/f%04d", i), []byte("new")); err != nil {
			t.Fatal(err)
		}
	}
	return int(src.reads.Load())
}

// TestLazyCreateReadsAreLinear: adding files to a lazily opened image
// reads its source in proportion to the files, not to files squared. An
// allocator that rescans the inode table per created file reads 4x as
// much for an image and a batch both twice the size.
func TestLazyCreateReadsAreLinear(t *testing.T) {
	small, large := lazyCreateReads(t, 200), lazyCreateReads(t, 400)
	t.Logf("source reads: %d for 200+200 files, %d for 400+400", small, large)
	if float64(large) > 2.5*float64(small) {
		t.Fatalf("doubling the files multiplied source reads by %.2f (%d -> %d), want <= 2.5",
			float64(large)/float64(small), small, large)
	}
}
