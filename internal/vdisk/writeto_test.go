package vdisk

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"expelliarmus/internal/chunkpool"
)

// countingSource counts the reads a lazy disk issues to its image.
type countingSource struct {
	r     *bytes.Reader
	reads int
}

func (c *countingSource) ReadAt(p []byte, off int64) (int, error) {
	c.reads++
	return c.r.ReadAt(p, off)
}

// fill returns a cluster-sized pattern that names its layer and cluster.
func fill(cs int, layer byte, ci int64) []byte {
	b := bytes.Repeat([]byte{layer}, cs)
	b[0], b[cs-1] = byte(ci), byte(ci>>8)
	return b
}

// TestWriteToReadsUntouchedLazyDiskInChunks: an untouched lazy disk's data
// clusters sit back to back in its source whatever their indices, so
// serializing it costs one source read per pooled chunk of 32 clusters,
// not one per cluster.
func TestWriteToReadsUntouchedLazyDiskInChunks(t *testing.T) {
	const clusters = 100
	d := New("scattered", 64<<20, DefaultClusterSize)
	for i := int64(0); i < clusters; i++ {
		if _, err := d.WriteAt(fill(DefaultClusterSize, 1, i), i*i*DefaultClusterSize); err != nil {
			t.Fatal(err)
		}
	}
	img := d.Serialize()
	src := &countingSource{r: bytes.NewReader(img)}
	lz, err := DeserializeLazy("lazy", src, int64(len(img)))
	if err != nil {
		t.Fatal(err)
	}
	src.reads = 0
	var out bytes.Buffer
	if _, err := lz.WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), img) {
		t.Fatal("WriteTo of an untouched lazy disk differs from its source image")
	}
	perChunk := chunkpool.Size / DefaultClusterSize
	if want := (clusters + perChunk - 1) / perChunk; src.reads != want {
		t.Fatalf("WriteTo issued %d source reads for %d clusters, want %d", src.reads, clusters, want)
	}
}

// layeredDisk builds a three-layer disk — a lazy image with local writes
// and discards, backed by a plain copy-on-write layer, backed by a second
// lazy image with discards of its own — next to a model holding the bytes
// every cluster must read as: the same content written plainly into one
// flat disk. Lazy runs in it are broken by local clusters, by discards, by
// clusters only a lower layer holds, and by a gap in the source.
func layeredDisk(t *testing.T) (top, model *Disk) {
	t.Helper()
	const size, cs = 96, DefaultClusterSize
	model = New("model", int64(size*cs), cs)
	lazyLayer := func(name string, layer byte, holds func(ci int64) bool) *Disk {
		d := New(name, int64(size*cs), cs)
		for ci := int64(0); ci < size; ci++ {
			if holds(ci) {
				if _, err := d.WriteAt(fill(cs, layer, ci), ci*int64(cs)); err != nil {
					t.Fatal(err)
				}
			}
		}
		img := d.Serialize()
		lz, err := DeserializeLazy(name, bytes.NewReader(img), int64(len(img)))
		if err != nil {
			t.Fatal(err)
		}
		return lz
	}
	// Bottom: clusters 0-79 of a lazy image, 20-23 discarded.
	bottom := lazyLayer("bottom", 'b', func(ci int64) bool { return ci < 80 })
	bottom.Discard(20*int64(cs), 4*int64(cs))
	// Middle: plain local writes over 30-33 and, alone in the chain, 90.
	mid := bottom.NewChild("mid")
	// Top: a lazy image holding the even clusters below 60 and all of
	// 70-75, with 40-47 discarded and 10-11 and 72 overwritten locally.
	top = lazyLayer("top", 't', func(ci int64) bool { return (ci < 60 && ci%2 == 0) || (ci >= 70 && ci < 76) })
	top.backing = mid
	top.Discard(40*int64(cs), 8*int64(cs))

	expect := map[int64][]byte{}
	for ci := int64(0); ci < 80; ci++ {
		if ci < 20 || ci >= 24 {
			expect[ci] = fill(cs, 'b', ci)
		}
	}
	for _, ci := range []int64{30, 31, 32, 33, 90} {
		expect[ci] = fill(cs, 'm', ci)
		if _, err := mid.WriteAt(expect[ci], ci*int64(cs)); err != nil {
			t.Fatal(err)
		}
	}
	for ci := int64(0); ci < 76; ci++ {
		if ((ci < 60 && ci%2 == 0) || ci >= 70) && (ci < 40 || ci >= 48) {
			expect[ci] = fill(cs, 't', ci)
		}
	}
	for _, ci := range []int64{10, 11, 72} {
		expect[ci] = fill(cs, 'l', ci)
		if _, err := top.WriteAt(expect[ci], ci*int64(cs)); err != nil {
			t.Fatal(err)
		}
	}
	for ci, data := range expect {
		if _, err := model.WriteAt(data, ci*int64(cs)); err != nil {
			t.Fatal(err)
		}
	}
	return top, model
}

// TestWriteToMixedLayers: serializing a disk that mixes local, lazy,
// discarded, backing-chain and non-contiguous lazy clusters gives the
// image of the flat model, byte for byte — and, for the default cluster
// size, the image the per-cluster serializer before this one gave (the
// digest was computed by running this test against it).
func TestWriteToMixedLayers(t *testing.T) {
	top, model := layeredDisk(t)
	want := model.Serialize()
	var got bytes.Buffer
	n, err := top.WriteTo(&got)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(want)) || !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("layered disk serialized to %d bytes that differ from the flat model's %d", n, len(want))
	}
	const pinned = "3d430122b001793d41765d7da25e523f627e99679348aea51ef77240ef0d320f"
	sum := sha256.Sum256(got.Bytes())
	if hex.EncodeToString(sum[:]) != pinned {
		t.Fatalf("layered image digest %x, want %s", sum, pinned)
	}
}

// TestWriteToClusterLargerThanChunk: a cluster that does not fit a pooled
// chunk is serialized through a buffer of its own size, one per Write.
func TestWriteToClusterLargerThanChunk(t *testing.T) {
	const cs = 2 * chunkpool.Size
	model := New("model", 6*cs, cs)
	for _, ci := range []int64{0, 1, 3, 4} {
		if _, err := model.WriteAt(fill(cs, 'z', ci), ci*cs); err != nil {
			t.Fatal(err)
		}
	}
	img := model.Serialize()
	lz, err := DeserializeLazy("lazy", bytes.NewReader(img), int64(len(img)))
	if err != nil {
		t.Fatal(err)
	}
	lz.Discard(1*cs, cs)
	model.Discard(1*cs, cs)
	for _, d := range []*Disk{lz, model} {
		if _, err := d.WriteAt([]byte("local"), 4*cs+17); err != nil {
			t.Fatal(err)
		}
	}
	w := &writeSizes{}
	if _, err := lz.WriteTo(w); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.buf.Bytes(), model.Serialize()) {
		t.Fatal("lazy disk with 256 KiB clusters serializes differently from the flat model")
	}
	for _, n := range w.sizes {
		if n != cs {
			t.Fatalf("WriteTo wrote %d bytes at once, want whole %d-byte clusters", n, cs)
		}
	}
}

type writeSizes struct {
	buf   bytes.Buffer
	sizes []int
}

func (w *writeSizes) Write(p []byte) (int, error) {
	w.sizes = append(w.sizes, len(p))
	return w.buf.Write(p)
}
