// Package vdisk implements a qcow2-like virtual disk: a sparse,
// cluster-mapped block device with copy-on-write backing files and a
// two-level (L1/L2) mapping table in its serialized form.
//
// The paper's VMIs are qcow2 images; its repository-size figures (Fig. 3)
// account the bytes of serialized qcow2 files, and the Qcow2 / Qcow2+Gzip
// baselines store exactly those bytes. This package provides the same
// storage semantics — sparse allocation (unwritten clusters occupy no
// space), copy-on-write children (cheap VMI cloning and versioning), and a
// deterministic linear serialization whose length is the image's "actual
// size" — without requiring qemu.
package vdisk

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"expelliarmus/internal/chunkpool"
)

// DefaultClusterSize is the default cluster size. Real qcow2 defaults to
// 64 KiB; the reproduction workload is generated at 1/1024 byte scale, so a
// proportionally smaller cluster keeps the allocation granularity faithful.
const DefaultClusterSize = 4096

// Magic identifies serialized disks ("QGO1" in analogy to qcow2's "QFI\xfb").
var Magic = []byte("QGO1")

const headerSize = 40

// arenaChunk is the byte size of the chunks local clusters are stored in.
const arenaChunk = 64 << 10

// owners issues owner tokens from 1, so a zero page belongs to no disk.
var owners atomic.Uint64

// lazySource is an on-demand cluster provider: a serialized image behind
// an io.ReaderAt plus, per L2 table the image holds, a page of the byte
// offsets of the clusters it maps (0 = unallocated). It is immutable and
// shared by Clone, its pages by CloneOver.
type lazySource struct {
	ra    io.ReaderAt
	pages [][]int64 // nil for a table the image lacks
}

// owned is a page of a disk's index or a chunk of its arena. Only the disk
// whose token is owner changes it in place; others copy it first.
type owned[T int32 | byte] struct {
	owner uint64
	s     []T
}

// Disk is a sparse virtual disk. The zero value is not usable; construct
// with New, Deserialize, or DeserializeLazy. Disk is not safe for
// concurrent mutation; a disk nothing writes may be read and cloned
// concurrently.
//
// A disk has up to three layers per cluster, consulted in order: local
// writes (the index into the arena), the lazy source, read on demand and
// masked by the index so Discard need not materialize, and the backing
// chain. The index and the source have one page per L2 table present, so
// they grow with those, not with the virtual size, and walk in order. A
// slot a discard freed is handed out again while the disk owns its chunk.
type Disk struct {
	name        string
	clusterSize int
	virtualSize int64
	l2Bits      uint           // log2 of the clusters one L2 table maps
	chunkBits   uint           // log2 of the clusters one chunk holds
	own         atomic.Uint64  // this disk's owner token
	index       []owned[int32] // per cluster: > 0 its arena slot, < 0 its lazy cluster discarded, 0 neither
	chunks      []owned[byte]
	slots       int32   // the last arena slot handed out; slot s is in chunk (s-1) >> chunkBits
	free        []int32 // discarded slots, reused while their chunk is still the disk's
	lazy        *lazySource
	backing     *Disk
}

// New creates an empty sparse disk with the given virtual size in bytes.
func New(name string, virtualSize int64, clusterSize int) *Disk {
	if clusterSize <= 0 || clusterSize&(clusterSize-1) != 0 {
		panic(fmt.Sprintf("vdisk: cluster size %d must be a positive power of two", clusterSize))
	}
	if virtualSize < 0 {
		panic("vdisk: negative virtual size")
	}
	d := &Disk{
		name:        name,
		clusterSize: clusterSize,
		virtualSize: virtualSize,
		l2Bits:      uint(max(bits.Len(uint(clusterSize))-4, 0)),
		chunkBits:   uint(max(bits.Len(uint(arenaChunk/clusterSize))-1, 0)),
	}
	d.own.Store(owners.Add(1))
	return d
}

// Name returns the disk's name.
func (d *Disk) Name() string { return d.name }

// VirtualSize returns the guest-visible size in bytes.
func (d *Disk) VirtualSize() int64 { return d.virtualSize }

// ClusterSize returns the cluster size in bytes.
func (d *Disk) ClusterSize() int { return d.clusterSize }

// AllocatedClusters returns the number of clusters allocated locally
// (excluding the backing chain). Lazily backed clusters count: they are
// this disk's own content, merely not materialized yet.
func (d *Disk) AllocatedClusters() int {
	n := 0
	d.walk(false, func(int64, []byte, *lazySource, int64) error { n++; return nil })
	return n
}

// AllocatedBytes returns the local allocation in bytes — the sparse
// "actual size" of the image, excluding the backing chain.
func (d *Disk) AllocatedBytes() int64 {
	return int64(d.AllocatedClusters()) * int64(d.clusterSize)
}

// ReadAt reads len(p) bytes at offset off, falling through to the backing
// chain for unallocated clusters and yielding zeros where nothing was ever
// written. It implements io.ReaderAt semantics for in-range requests.
func (d *Disk) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || off+int64(len(p)) > d.virtualSize {
		return 0, fmt.Errorf("vdisk %s: read [%d,%d) out of range [0,%d)", d.name, off, off+int64(len(p)), d.virtualSize)
	}
	n := 0
	for n < len(p) {
		ci := (off + int64(n)) / int64(d.clusterSize)
		co := int((off + int64(n)) % int64(d.clusterSize))
		span := min(d.clusterSize-co, len(p)-n)
		if err := d.readSpan(p[n:n+span], ci, co); err != nil {
			return n, err
		}
		n += span
	}
	return n, nil
}

// split returns the L2 table that maps cluster ci and ci's entry in it.
func (d *Disk) split(ci int64) (t, e int64) {
	return ci >> d.l2Bits, ci & (1<<d.l2Bits - 1)
}

// pages returns the disk's index and lazy offset pages of L2 table t.
func (d *Disk) pages(t int64) (slots []int32, offs []int64) {
	if t < int64(len(d.index)) {
		slots = d.index[t].s
	}
	if d.lazy != nil && t < int64(len(d.lazy.pages)) {
		offs = d.lazy.pages[t]
	}
	return slots, offs
}

// entry reads entry e of a layer's pages: arena slot and lazy offset.
func entry(slots []int32, offs []int64, e int64) (s int32, off int64) {
	if slots != nil {
		s = slots[e]
	}
	if offs != nil {
		off = offs[e]
	}
	return s, off
}

// cluster returns the bytes of arena slot s.
func (d *Disk) cluster(s int32) []byte {
	at := int((s-1)&(1<<d.chunkBits-1)) * d.clusterSize
	return d.chunks[(s-1)>>d.chunkBits].s[at : at+d.clusterSize : at+d.clusterSize]
}

// resolve finds the layer that holds cluster ci — local clusters, then the
// lazy source unless the cluster was discarded, then the backing chain —
// and returns its data, or the lazy source and its offset, or neither.
func (d *Disk) resolve(ci int64) (local []byte, src *lazySource, off int64) {
	t, e := d.split(ci)
	for l := d; l != nil; l = l.backing {
		slots, offs := l.pages(t)
		if s, off := entry(slots, offs, e); s > 0 {
			return l.cluster(s), nil, 0
		} else if s == 0 && off != 0 {
			return nil, l.lazy, off
		}
	}
	return nil, nil, 0
}

// readSpan fills dst with the bytes of cluster ci starting at in-cluster
// offset co, zeros where no layer holds the cluster. Lazy clusters are
// read straight into dst — no cluster buffer is materialized or retained.
func (d *Disk) readSpan(dst []byte, ci int64, co int) error {
	local, src, off := d.resolve(ci)
	switch {
	case local != nil:
		copy(dst, local[co:co+len(dst)])
	case src != nil:
		if _, err := src.ra.ReadAt(dst, off+int64(co)); err != nil {
			return fmt.Errorf("vdisk %s: lazy read of cluster %d: %w", d.name, ci, err)
		}
	default:
		clear(dst)
	}
	return nil
}

// set makes v the index entry of cluster ci, growing the index to reach
// it and copying a page the disk does not own.
func (d *Disk) set(ci int64, v int32, own uint64) {
	t, e := d.split(ci)
	if n := t + 1 - int64(len(d.index)); n > 0 {
		d.index = append(d.index, make([]owned[int32], n)...)
	}
	if p := &d.index[t]; p.owner != own {
		p.owner, p.s = own, append(make([]int32, 0, 1<<d.l2Bits), p.s...)[:1<<d.l2Bits]
	}
	d.index[t].s[e] = v
}

// alloc returns an arena slot the disk owns that no cluster maps: a
// discarded one, unless a Clone has shared its chunk since, else a fresh
// one. Its bytes are not zeroed; WriteAt fills the whole cluster before
// anything reads it.
func (d *Disk) alloc(own uint64) (int32, []byte) {
	for len(d.free) > 0 {
		s := d.free[len(d.free)-1]
		d.free = d.free[:len(d.free)-1]
		if d.chunks[(s-1)>>d.chunkBits].owner == own {
			return s, d.cluster(s)
		}
	}
	n := len(d.chunks)
	if n == 0 || d.chunks[n-1].owner != own || d.slots == int32(n)<<d.chunkBits {
		d.chunks = append(d.chunks, owned[byte]{own, make([]byte, d.clusterSize<<d.chunkBits)})
		d.slots = int32(n) << d.chunkBits
	}
	d.slots++
	return d.slots, d.cluster(d.slots)
}

// WriteAt writes p at offset off, allocating clusters as needed. A whole
// cluster write fills its slot; a partial one first fills the slot with
// the cluster's old contents, local, lazy, backing or zeros (copy-on-write).
func (d *Disk) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 || off+int64(len(p)) > d.virtualSize {
		return 0, fmt.Errorf("vdisk %s: write [%d,%d) out of range [0,%d)", d.name, off, off+int64(len(p)), d.virtualSize)
	}
	own := d.own.Load()
	n := 0
	for n < len(p) {
		ci := (off + int64(n)) / int64(d.clusterSize)
		co := int((off + int64(n)) % int64(d.clusterSize))
		span := min(d.clusterSize-co, len(p)-n)
		slots, _ := d.pages(ci >> d.l2Bits)
		s, _ := entry(slots, nil, ci&(1<<d.l2Bits-1))
		if s <= 0 || d.chunks[(s-1)>>d.chunkBits].owner != own {
			var c []byte
			s, c = d.alloc(own)
			// Partial write: preserve local/lazy/backing contents (COW).
			if span != d.clusterSize {
				if err := d.readSpan(c, ci, 0); err != nil {
					d.free = append(d.free, s)
					return n, err
				}
			}
			d.set(ci, s, own)
		}
		copy(d.cluster(s)[co:], p[n:n+span])
		n += span
	}
	return n, nil
}

// Discard deallocates all clusters fully contained in [off, off+length),
// reclaiming their space. Reads of discarded clusters return backing data
// or zeros. This models qemu's discard/unmap support, which the
// Expelliarmus decomposer relies on when removing packages shrinks an
// image. A discarded local cluster's arena slot goes to the disk's free
// list when the disk owns its chunk, and the next write reuses it.
func (d *Disk) Discard(off, length int64) {
	if length <= 0 {
		return
	}
	own := d.own.Load()
	first := (off + int64(d.clusterSize) - 1) / int64(d.clusterSize)
	last := (off + length) / int64(d.clusterSize) // exclusive
	for ci := first; ci < last; ci++ {
		// Mask (don't materialize) a lazy cluster: reads and serialization
		// then skip it, exactly as if a materialized cluster were deleted.
		t, e := d.split(ci)
		slots, offs := d.pages(t)
		s, lazy := entry(slots, offs, e)
		if lazy != 0 && s >= 0 {
			d.set(ci, -1, own)
		} else if lazy == 0 && s != 0 {
			d.set(ci, 0, own)
		}
		if s > 0 && d.chunks[(s-1)>>d.chunkBits].owner == own {
			d.free = append(d.free, s)
		}
	}
}

// NewChild creates a copy-on-write child whose reads fall through to d.
// Writes to the child never modify d.
func (d *Disk) NewChild(name string) *Disk {
	c := New(name, d.virtualSize, d.clusterSize)
	c.backing = d
	return c
}

// Clone returns an independent copy of the disk (same backing, same lazy
// source) that shares its index pages and chunks: both disks get new owner
// tokens, so each copies a page, or moves a cluster, on its first write to
// it. Other goroutines may read or clone d meanwhile, so d's free list is
// left alone: its slots are now in chunks d does not own, which alloc skips.
func (d *Disk) Clone(name string) *Disk {
	c := New(name, d.virtualSize, d.clusterSize)
	c.index, c.chunks, c.slots = slices.Clone(d.index), slices.Clip(d.chunks), d.slots
	c.lazy, c.backing = d.lazy, d.backing
	d.own.Store(owners.Add(1))
	return c
}

// CloneOver is Clone with the lazy source read through ra: ra must serve
// the very image the source was deserialized from, e.g. another reader
// over the same content-addressed blob. The source's offset pages are
// shared, not rebuilt. With a nil ra the clone holds no reader and is only
// a template for later CloneOver calls: a read of a lazy cluster through it
// panics.
func (d *Disk) CloneOver(name string, ra io.ReaderAt) *Disk {
	c := d.Clone(name)
	if c.lazy != nil {
		c.lazy = &lazySource{ra: ra, pages: d.lazy.pages}
	}
	return c
}

// Flatten merges the whole backing chain and the disk's own lazy source
// into local clusters, making it standalone and no longer referencing its
// deserialization source. The error is always nil for fully materialized
// disks; a lazily backed disk surfaces read failures from its source.
func (d *Disk) Flatten() error {
	f := New(d.name, d.virtualSize, d.clusterSize)
	own := f.own.Load()
	err := d.walk(true, func(ci int64, local []byte, src *lazySource, off int64) error {
		s, c := f.alloc(own)
		f.set(ci, s, own)
		if local != nil {
			copy(c, local)
		} else if _, err := src.ra.ReadAt(c, off); err != nil {
			return fmt.Errorf("vdisk %s: lazy read of cluster %d: %w", d.name, ci, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	d.index, d.chunks, d.slots, d.free, d.lazy, d.backing = f.index, f.chunks, f.slots, nil, nil, nil
	d.own.Store(own)
	return nil
}

// walk calls fn in cluster order for every cluster the disk (with all, its
// chain) holds, with what resolve would return for it, visiting only the
// L2 tables some layer has a page for. It stops at fn's first error.
func (d *Disk) walk(all bool, fn func(ci int64, local []byte, src *lazySource, off int64) error) error {
	type layer struct {
		d     *Disk
		slots []int32
		offs  []int64
	}
	var layers []layer
	tables := 0
	for l := d; l != nil && (all || l == d); l = l.backing {
		layers = append(layers, layer{d: l})
		tables = max(tables, len(l.index))
		if l.lazy != nil {
			tables = max(tables, len(l.lazy.pages))
		}
	}
	for t := range int64(tables) {
		present := false
		for i, l := range layers {
			layers[i].slots, layers[i].offs = l.d.pages(t)
			present = present || layers[i].slots != nil || layers[i].offs != nil
		}
		for e := int64(0); present && e < 1<<d.l2Bits; e++ {
			for _, l := range layers {
				s, off := entry(l.slots, l.offs, e)
				if s < 0 || s == 0 && off == 0 {
					continue
				}
				local, src := []byte(nil), l.d.lazy
				if s > 0 {
					local, src, off = l.d.cluster(s), nil, 0
				}
				if err := fn(t<<d.l2Bits|e, local, src, off); err != nil {
					return err
				}
				break
			}
		}
	}
	return nil
}

// layout captures where each section of the serialized image lands, as
// the cluster set decides, so WriteTo can stream the image unbuilt.
type layout struct {
	numL2, l2Start, dataStart int64
	count                     int64   // data clusters
	l2Order                   []int64 // the L2 tables that map them, ascending
}

// l2Tables is the number of L2 tables (each one cluster of 8-byte
// entries) that map a disk of the given virtual size.
func l2Tables(virtualSize, cs int64) int64 {
	return ((virtualSize+cs-1)/cs + cs/8 - 1) / (cs / 8)
}

// l1Start is where the L1 table starts: after the header cluster(s).
func l1Start(cs int64) int64 { return (headerSize + cs - 1) / cs * cs }

func (d *Disk) layoutFor() layout {
	cs := int64(d.clusterSize)
	lo := layout{numL2: l2Tables(d.virtualSize, cs)}
	d.walk(true, func(ci int64, _ []byte, _ *lazySource, _ int64) error {
		if t := ci >> d.l2Bits; len(lo.l2Order) == 0 || lo.l2Order[len(lo.l2Order)-1] != t {
			lo.l2Order = append(lo.l2Order, t)
		}
		lo.count++
		return nil
	})
	// Like real qcow2, every section is cluster-aligned: header, L1 table,
	// L2 tables (one cluster each), data clusters. Alignment is what lets
	// fixed-size block deduplication find identical clusters across images.
	lo.l2Start = l1Start(cs) + (lo.numL2*8+cs-1)/cs*cs
	lo.dataStart = lo.l2Start + int64(len(lo.l2Order))*cs
	return lo
}

// WriteTo streams the serialized image (identical bytes to Serialize) to
// w: header and L1 up front, then each L2 table through a single reused
// cluster buffer, then the data clusters a pooled chunk at a time. Peak
// memory does not grow with the data, so a retrieval can serve a gigabyte
// image straight to a sink without ever holding it.
func (d *Disk) WriteTo(w io.Writer) (int64, error) {
	lo, cs := d.layoutFor(), int64(d.clusterSize)
	var written int64
	emit := func(b []byte) error {
		n, err := w.Write(b)
		written += int64(n)
		if err == nil && n < len(b) {
			err = io.ErrShortWrite
		}
		return err
	}

	// Header cluster(s), then the L1 table: each L2 table's offset, 0 = absent.
	head := make([]byte, lo.l2Start)
	copy(head, Magic)
	h := head[len(Magic):]
	binary.BigEndian.PutUint32(h[0:], 1) // version
	binary.BigEndian.PutUint32(h[4:], uint32(d.clusterSize))
	binary.BigEndian.PutUint64(h[8:], uint64(d.virtualSize))
	binary.BigEndian.PutUint64(h[16:], uint64(lo.numL2))
	binary.BigEndian.PutUint64(h[24:], uint64(lo.count))
	for i, t := range lo.l2Order {
		binary.BigEndian.PutUint64(head[l1Start(cs)+t*8:], uint64(lo.l2Start+int64(i)*cs))
	}
	for _, b := range [][]byte{head[:l1Start(cs)], head[l1Start(cs):]} {
		if err := emit(b); err != nil {
			return written, err
		}
	}

	// L2 tables: offset of each data cluster, 0 = unallocated, which is
	// its rank in cluster order. One walk fills each table in turn.
	l2 := make([]byte, cs)
	rank, table := int64(0), int64(-1)
	err := d.walk(true, func(ci int64, _ []byte, _ *lazySource, _ int64) error {
		t, e := d.split(ci)
		if t != table && table >= 0 {
			if err := emit(l2); err != nil {
				return err
			}
			clear(l2)
		}
		table = t
		binary.BigEndian.PutUint64(l2[e*8:], uint64(lo.dataStart+rank*cs))
		rank++
		return nil
	})
	if err == nil && table >= 0 {
		err = emit(l2)
	}
	if err != nil {
		return written, err
	}

	// Data clusters, a pooled chunk per Write. A run of clusters back to back
	// in one lazy source from off fills buf[start:filled] in one ReadAt.
	chunk := chunkpool.Get()
	defer chunkpool.Put(chunk)
	buf := *chunk
	if cs > int64(len(buf)) {
		buf = make([]byte, cs)
	}
	var run struct {
		src   *lazySource
		off   int64
		start int
	}
	filled := 0
	// flush reads the run in, then, with all, writes buf out.
	flush := func(all bool) error {
		if run.src != nil {
			if _, err := run.src.ra.ReadAt(buf[run.start:filled], run.off); err != nil {
				return fmt.Errorf("vdisk %s: lazy read of %d bytes at %d: %w", d.name, filled-run.start, run.off, err)
			}
			run.src = nil
		}
		if !all {
			return nil
		}
		err := emit(buf[:filled])
		filled = 0
		return err
	}
	err = d.walk(true, func(_ int64, local []byte, src *lazySource, off int64) error {
		if filled+d.clusterSize > len(buf) {
			if err := flush(true); err != nil {
				return err
			}
		}
		if src == nil || src != run.src || off != run.off+int64(filled-run.start) {
			if err := flush(false); err != nil {
				return err
			}
			if local != nil {
				copy(buf[filled:], local)
			} else {
				run.src, run.off, run.start = src, off, filled
			}
		}
		filled += d.clusterSize
		return nil
	})
	if err == nil && filled > 0 {
		err = flush(true)
	}
	return written, err
}

// SerializedBytes returns the exact length of the serialized image without
// producing any of it.
func (d *Disk) SerializedBytes() int64 {
	lo := d.layoutFor()
	return lo.dataStart + lo.count*int64(d.clusterSize)
}

// Serialize encodes the disk (with its backing chain flattened into the
// output, like `qemu-img convert`) in the qcow2-like format:
//
//	header | L1 table | L2 tables | data clusters
//
// Unallocated clusters occupy no space (sparse encoding). The length of
// the returned slice is the image's on-disk size, the quantity the Qcow2
// baseline accounts in Fig. 3. Serialize is a materializing adapter over
// WriteTo; it panics if a lazily backed cluster can no longer be read
// (error-aware callers stream with WriteTo instead).
func (d *Disk) Serialize() []byte {
	var buf bytes.Buffer
	buf.Grow(int(d.SerializedBytes()))
	if _, err := d.WriteTo(&buf); err != nil {
		panic(fmt.Sprintf("vdisk %s: serialize: %v", d.name, err))
	}
	return buf.Bytes()
}

// Deserialize decodes a serialized disk image into a fully materialized
// disk: an adapter over DeserializeLazy that copies every cluster out of
// the image, so the result never references it.
func Deserialize(name string, image []byte) (*Disk, error) {
	d, err := DeserializeLazy(name, bytes.NewReader(image), int64(len(image)))
	if err != nil {
		return nil, err
	}
	if err := d.Flatten(); err != nil {
		return nil, err
	}
	return d, nil
}

// DeserializeLazy decodes a serialized disk image served by ra without
// materializing its data clusters: the mapping tables are parsed and each
// cluster is remembered as an offset into ra, to be read on demand. The
// disk references ra until Flatten, so ra must stay readable; writes never
// touch it, and Discard masks lazy clusters rather than materializing them.
func DeserializeLazy(name string, ra io.ReaderAt, size int64) (*Disk, error) {
	var hdrBuf [headerSize]byte
	if size < headerSize {
		return nil, fmt.Errorf("vdisk: bad magic")
	} else if _, err := ra.ReadAt(hdrBuf[:], 0); err != nil {
		return nil, fmt.Errorf("vdisk: read header: %w", err)
	} else if !bytes.Equal(hdrBuf[:len(Magic)], Magic) {
		return nil, fmt.Errorf("vdisk: bad magic")
	}
	hdr := hdrBuf[len(Magic):]
	if version := binary.BigEndian.Uint32(hdr[0:]); version != 1 {
		return nil, fmt.Errorf("vdisk: unsupported version %d", version)
	}
	// The image may come straight off the network, so every count the
	// header declares is checked against the bytes present before anything
	// is sized by it: a cluster holds at least one table entry and at most
	// the image, the L2 count is the one the virtual size implies, the L1
	// table fits in the image, and the data clusters fit too. The tables
	// must map exactly that many, so the offset pages take one entry per L1
	// slot and at most two clusters' bytes per table that maps a cluster.
	cs := int64(binary.BigEndian.Uint32(hdr[4:]))
	if cs < 8 || cs&(cs-1) != 0 || cs > size {
		return nil, fmt.Errorf("vdisk: corrupt cluster size %d", cs)
	}
	virtualSize, numL2 := int64(binary.BigEndian.Uint64(hdr[8:])), int64(binary.BigEndian.Uint64(hdr[16:]))
	if virtualSize < 0 || virtualSize > math.MaxInt64-cs || numL2 != l2Tables(virtualSize, cs) {
		return nil, fmt.Errorf("vdisk: corrupt header: %d L2 tables for virtual size %d", numL2, virtualSize)
	}
	if numL2 > (size-l1Start(cs))/8 {
		return nil, fmt.Errorf("vdisk: truncated L1 table")
	}
	count := int64(binary.BigEndian.Uint64(hdr[24:]))
	if count < 0 || count > size/cs {
		return nil, fmt.Errorf("vdisk: corrupt header: %d data clusters in a %d-byte image", count, size)
	}
	d := New(name, virtualSize, int(cs))
	l1 := make([]byte, numL2*8)
	if _, err := ra.ReadAt(l1, l1Start(cs)); numL2 > 0 && err != nil {
		return nil, fmt.Errorf("vdisk: read L1 table: %w", err)
	}
	pages := make([][]int64, numL2)
	var slab []int64 // pages are cut from slabs of doubling size, at most 2x the pages used
	mapped, grow, l2 := int64(0), cs/8, make([]byte, cs)
	for t := range numL2 {
		if l2Off := int64(binary.BigEndian.Uint64(l1[t*8:])); l2Off == 0 {
			continue
		} else if l2Off < 0 || l2Off > size-cs {
			return nil, fmt.Errorf("vdisk: L2 table %d out of bounds", t)
		} else if _, err := ra.ReadAt(l2, l2Off); err != nil {
			return nil, fmt.Errorf("vdisk: read L2 table %d: %w", t, err)
		}
		for e := range cs / 8 {
			dataOff := int64(binary.BigEndian.Uint64(l2[e*8:]))
			if dataOff == 0 {
				continue
			} else if dataOff < 0 || dataOff > size-cs {
				return nil, fmt.Errorf("vdisk: cluster %d out of bounds", t*(cs/8)+e)
			} else if mapped++; mapped > count {
				return nil, fmt.Errorf("vdisk: corrupt header: %d data clusters declared, more mapped", count)
			} else if pages[t] == nil {
				if len(slab) == 0 {
					slab, grow = make([]int64, grow), 2*grow
				}
				pages[t], slab = slab[:cs/8:cs/8], slab[cs/8:]
			}
			pages[t][e] = dataOff
		}
	}
	if mapped != count {
		return nil, fmt.Errorf("vdisk: corrupt header: %d data clusters declared, %d mapped", count, mapped)
	}
	if count > 0 {
		d.lazy = &lazySource{ra: ra, pages: pages}
	}
	return d, nil
}
