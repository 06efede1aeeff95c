package vdisk

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// mkLazyFixture builds a disk with a sparse, multi-L2 cluster pattern,
// returning the materialized disk and its serialized image.
func mkLazyFixture(t *testing.T) (*Disk, []byte) {
	t.Helper()
	d := New("fixture", 4<<20, DefaultClusterSize)
	// Scattered writes: cluster-aligned, partial, and spanning.
	for i, off := range []int64{0, 4096, 12288, 100000, 1<<20 + 5, 3 << 20} {
		data := bytes.Repeat([]byte{byte(i + 1)}, 9000)
		if _, err := d.WriteAt(data, off); err != nil {
			t.Fatalf("WriteAt(%d): %v", off, err)
		}
	}
	return d, d.Serialize()
}

func lazyOf(t *testing.T, img []byte) *Disk {
	t.Helper()
	d, err := DeserializeLazy("lazy", bytes.NewReader(img), int64(len(img)))
	if err != nil {
		t.Fatalf("DeserializeLazy: %v", err)
	}
	if d.lazy == nil {
		t.Fatal("DeserializeLazy produced no lazy source for a non-empty image")
	}
	return d
}

func TestLazyRoundTripByteIdentical(t *testing.T) {
	_, img := mkLazyFixture(t)
	lz := lazyOf(t, img)
	var out bytes.Buffer
	n, err := lz.WriteTo(&out)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(len(img)) || !bytes.Equal(out.Bytes(), img) {
		t.Fatalf("lazy WriteTo produced %d bytes, differs from source image (%d bytes)", n, len(img))
	}
	if got := lz.SerializedBytes(); got != int64(len(img)) {
		t.Fatalf("SerializedBytes = %d, want %d", got, len(img))
	}
	if !bytes.Equal(lz.Serialize(), img) {
		t.Fatal("lazy Serialize differs from source image")
	}
	if len(lz.clusters) != 0 {
		t.Fatalf("serializing a lazy disk materialized %d clusters", len(lz.clusters))
	}
}

func TestLazyReadEquivalence(t *testing.T) {
	full, img := mkLazyFixture(t)
	lz := lazyOf(t, img)
	for _, r := range []struct{ off, n int64 }{{0, 4096}, {4000, 10000}, {1 << 20, 64}, {2 << 20, 4096}, {4<<20 - 17, 17}} {
		want := make([]byte, r.n)
		got := make([]byte, r.n)
		if _, err := full.ReadAt(want, r.off); err != nil {
			t.Fatalf("materialized ReadAt(%d): %v", r.off, err)
		}
		if _, err := lz.ReadAt(got, r.off); err != nil {
			t.Fatalf("lazy ReadAt(%d): %v", r.off, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("lazy read at %d differs from materialized", r.off)
		}
	}
}

// TestLazyCOW: writes to a lazy disk go to local clusters, never the
// source, and partial writes preserve lazily backed bytes.
func TestLazyCOW(t *testing.T) {
	full, img := mkLazyFixture(t)
	before := append([]byte(nil), img...)
	lz := lazyOf(t, img)
	patch := []byte("copy-on-write patch")
	if _, err := lz.WriteAt(patch, 4100); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	if !bytes.Equal(img, before) {
		t.Fatal("write to a lazy disk mutated the source image")
	}
	if _, err := full.WriteAt(patch, 4100); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lz.Serialize(), full.Serialize()) {
		t.Fatal("lazy disk after COW write serializes differently from materialized")
	}
}

// TestLazyDiscard: Discard must mask lazy clusters so reads zero and the
// serialized form drops them — identical to discarding materialized ones.
func TestLazyDiscard(t *testing.T) {
	full, img := mkLazyFixture(t)
	lz := lazyOf(t, img)
	full.Discard(0, 8192)
	lz.Discard(0, 8192)
	got := make([]byte, 8192)
	if _, err := lz.ReadAt(got, 0); err != nil {
		t.Fatalf("ReadAt after discard: %v", err)
	}
	if !bytes.Equal(got, make([]byte, 8192)) {
		t.Fatal("discarded lazy clusters still serve data")
	}
	if !bytes.Equal(lz.Serialize(), full.Serialize()) {
		t.Fatal("discard on lazy disk serializes differently from materialized")
	}
	if lc, fc := lz.AllocatedClusters(), full.AllocatedClusters(); lc != fc {
		t.Fatalf("AllocatedClusters after discard: lazy %d, materialized %d", lc, fc)
	}
}

func TestLazyCloneIndependence(t *testing.T) {
	_, img := mkLazyFixture(t)
	lz := lazyOf(t, img)
	ref := lz.Serialize()
	c := lz.Clone("clone")
	c.Discard(0, 8192)
	if _, err := c.WriteAt([]byte("clone-only"), 1<<20); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lz.Serialize(), ref) {
		t.Fatal("mutating a clone changed the original lazy disk")
	}
}

func TestLazyFlattenMaterializes(t *testing.T) {
	_, img := mkLazyFixture(t)
	lz := lazyOf(t, img)
	if err := lz.Flatten(); err != nil {
		t.Fatalf("Flatten: %v", err)
	}
	if lz.lazy != nil {
		t.Fatal("Flatten left the lazy source attached")
	}
	if !bytes.Equal(lz.Serialize(), img) {
		t.Fatal("flattened disk serializes differently from its source image")
	}
}

func TestLazyAllocationAccounting(t *testing.T) {
	full, img := mkLazyFixture(t)
	lz := lazyOf(t, img)
	if lc, fc := lz.AllocatedClusters(), full.AllocatedClusters(); lc != fc {
		t.Fatalf("AllocatedClusters: lazy %d, materialized %d", lc, fc)
	}
	if lb, fb := lz.AllocatedBytes(), full.AllocatedBytes(); lb != fb {
		t.Fatalf("AllocatedBytes: lazy %d, materialized %d", lb, fb)
	}
	// Overwriting a lazily backed cluster must not double-count it.
	if _, err := lz.WriteAt(make([]byte, 4096), 0); err != nil {
		t.Fatal(err)
	}
	if lc, fc := lz.AllocatedClusters(), full.AllocatedClusters(); lc != fc {
		t.Fatalf("AllocatedClusters after overwrite: lazy %d, materialized %d", lc, fc)
	}
}

// brokenAt serves reads until armed, then fails: the source disappearing
// after deserialization (e.g. a store closed underneath a lazy image).
type brokenAt struct {
	img   []byte
	armed bool
}

func (b *brokenAt) ReadAt(p []byte, off int64) (int, error) {
	if b.armed {
		return 0, errors.New("source gone")
	}
	r := bytes.NewReader(b.img)
	return r.ReadAt(p, off)
}

func TestLazyReadErrorSurfaces(t *testing.T) {
	_, img := mkLazyFixture(t)
	src := &brokenAt{img: img}
	lz, err := DeserializeLazy("lazy", src, int64(len(img)))
	if err != nil {
		t.Fatalf("DeserializeLazy: %v", err)
	}
	src.armed = true
	buf := make([]byte, 4096)
	if _, err := lz.ReadAt(buf, 0); err == nil {
		t.Fatal("lazy read with a dead source succeeded")
	}
	if _, err := lz.WriteTo(&bytes.Buffer{}); err == nil {
		t.Fatal("WriteTo with a dead source succeeded")
	}
	if err := lz.Flatten(); err == nil {
		t.Fatal("Flatten with a dead source succeeded")
	}
}

// TestLazyChildOverLazyBase: a COW child whose backing disk is lazy must
// read through to the source and serialize identically to a child over
// the materialized base.
func TestLazyChildOverLazyBase(t *testing.T) {
	full, img := mkLazyFixture(t)
	lz := lazyOf(t, img)
	mkChild := func(base *Disk) *Disk {
		c := base.NewChild(fmt.Sprintf("child-of-%s", base.Name()))
		if _, err := c.WriteAt([]byte("child data"), 555); err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := mkChild(full), mkChild(lz)
	if !bytes.Equal(a.Serialize(), b.Serialize()) {
		t.Fatal("child over lazy base serializes differently from child over materialized base")
	}
}
