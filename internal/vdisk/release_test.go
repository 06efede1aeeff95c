package vdisk

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"expelliarmus/internal/chunkpool"
)

// scribble takes n chunks from chunkpool, fills them with 0xEE and puts
// them back. On one P the first it takes are the ones a Release just put.
func scribble(n int) {
	cs := make([]*[]byte, n)
	for i := range cs {
		cs[i] = chunkpool.Get()
		for j := range *cs[i] {
			(*cs[i])[j] = 0xEE
		}
	}
	for _, c := range cs {
		chunkpool.Put(c)
	}
}

// TestReleasedDiskFails: after Release, reads of local and lazy clusters,
// writes and WriteTo all fail rather than serve zeros or recycled bytes.
func TestReleasedDiskFails(t *testing.T) {
	_, img := mkLazyFixture(t)
	d := lazyOf(t, img).Clone("released")
	if _, err := d.WriteAt([]byte("local"), 8192); err != nil {
		t.Fatal(err)
	}
	d.Release()
	p := make([]byte, 16)
	for _, off := range []int64{0, 8192, 2 << 20} { // lazy, local, nothing
		if _, err := d.ReadAt(p, off); err == nil {
			t.Errorf("ReadAt(%d) of a released disk succeeded", off)
		}
	}
	if _, err := d.WriteAt(p, 0); err == nil {
		t.Error("WriteAt of a released disk succeeded")
	}
	if n, err := d.WriteTo(io.Discard); err == nil || n != 0 {
		t.Errorf("WriteTo of a released disk = %d, %v; want 0 and an error", n, err)
	}
}

// TestRecycledChunksNeverLeak guards the invariant that makes a pooled
// arena safe: alloc hands out unzeroed slots, so every path that takes
// one — a partial write over nothing, over a lazy cluster, over a backing
// disk, and a Flatten — must fill the whole cluster before it is read.
// The pool is first filled with chunks of 0xEE; not one of those bytes
// may show through a read or the serialized image.
func TestRecycledChunksNeverLeak(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	_, img := mkLazyFixture(t)
	fresh := func() *Disk { return New("fresh", 4<<20, DefaultClusterSize) }
	child := func() *Disk {
		d, err := Deserialize("base", img)
		if err != nil {
			t.Fatal(err)
		}
		return d.NewChild("child")
	}
	flat := func() *Disk {
		d := lazyOf(t, img)
		if err := d.Flatten(); err != nil {
			t.Fatal(err)
		}
		return d
	}
	for name, mk := range map[string]func() *Disk{
		"fresh": fresh, "lazy": func() *Disk { return lazyOf(t, img) }, "child": child, "flattened": flat,
	} {
		scribble(64)
		d := mk()
		want := make([]byte, d.VirtualSize())
		if _, err := d.ReadAt(want, 0); err != nil {
			t.Fatal(err)
		}
		for _, off := range []int64{5, 4096 + 100, 100000, 2<<20 + 7} {
			if _, err := d.WriteAt([]byte{'w'}, off); err != nil {
				t.Fatal(err)
			}
			want[off] = 'w'
		}
		got := make([]byte, d.VirtualSize())
		if _, err := d.ReadAt(got, 0); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: the disk reads other bytes than were written (%v)", name, err)
		}
		back, err := Deserialize(name, d.Serialize())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := back.ReadAt(got, 0); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: the serialized image holds other bytes than were written (%v)", name, err)
		}
		d.Release()
	}
}

// TestLargeClusterChunksNotPooled: a cluster larger than chunkpool.Size
// gets a chunk of its own size, round-trips, and is never handed to the
// pool, whose Put drops a buffer of any other length.
func TestLargeClusterChunksNotPooled(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const cs = 2 * chunkpool.Size
	d := New("large", 8*cs, cs)
	for _, ci := range []int64{0, 2, 5} {
		if _, err := d.WriteAt(fill(cs, 'L', ci), ci*cs); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.WriteAt([]byte("partial"), 7*cs+9); err != nil {
		t.Fatal(err)
	}
	img := d.Serialize()
	back, err := Deserialize("back", img)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Serialize(), img) {
		t.Fatal("a disk of 256 KiB clusters does not round-trip")
	}
	large := map[*[]byte]bool{}
	for _, c := range d.chunks {
		if len(*c.s) != cs {
			t.Fatalf("a chunk of %d bytes for %d-byte clusters", len(*c.s), cs)
		}
		large[c.s] = true
	}
	d.Release()
	for range 2 * len(large) {
		if c := chunkpool.Get(); large[c] || len(*c) != chunkpool.Size {
			t.Fatal("the pool handed out a released large-cluster chunk")
		}
	}
}

// TestReleaseAllocatesNothing: Release hands the pool the very pointers
// it handed out, so returning a disk's arena costs no allocation.
func TestReleaseAllocatesNothing(t *testing.T) {
	const runs = 20
	disks := make([]*Disk, runs+1)
	for i := range disks {
		disks[i] = New("d", 1<<20, 256)
		if _, err := disks[i].WriteAt(bytes.Repeat([]byte{1}, 1<<19), 0); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	if n := testing.AllocsPerRun(runs, func() { disks[i].Release(); i++ }); n != 0 {
		t.Fatalf("Release allocates %v times", n)
	}
}
