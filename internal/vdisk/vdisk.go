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
	"slices"
	"sort"

	"expelliarmus/internal/chunkpool"
)

// DefaultClusterSize is the default cluster size. Real qcow2 defaults to
// 64 KiB; the reproduction workload is generated at 1/1024 byte scale, so a
// proportionally smaller cluster keeps the allocation granularity faithful.
const DefaultClusterSize = 4096

// Magic identifies serialized disks ("QGO1" in analogy to qcow2's "QFI\xfb").
var Magic = []byte("QGO1")

const headerSize = 40

// lazySource is an on-demand cluster provider: a serialized image behind
// an io.ReaderAt plus the file offset of every allocated cluster. A disk
// opened with DeserializeLazy reads clusters straight from the source as
// they are touched instead of materializing the whole image up front. The
// source is immutable and safe to share between disks (Clone does).
type lazySource struct {
	ra      io.ReaderAt
	offsets map[int64]int64 // cluster index -> byte offset in ra
}

// Disk is a sparse virtual disk. The zero value is not usable; construct
// with New, Deserialize, or DeserializeLazy. Disk is not safe for
// concurrent mutation.
//
// A disk has up to three layers per cluster, consulted in order: local
// writes (clusters), the lazy source it was deserialized from (lazy,
// masked per-cluster by dropped so Discard works without materializing),
// and the backing chain. Writes always land in clusters (copy-on-write),
// so the lazy source is never modified.
type Disk struct {
	name        string
	clusterSize int
	virtualSize int64
	clusters    map[int64][]byte // cluster index -> cluster data
	lazy        *lazySource
	dropped     map[int64]struct{} // lazy clusters masked by Discard
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
	return &Disk{
		name:        name,
		clusterSize: clusterSize,
		virtualSize: virtualSize,
		clusters:    make(map[int64][]byte),
	}
}

// Name returns the disk's name.
func (d *Disk) Name() string { return d.name }

// SetName renames the disk.
func (d *Disk) SetName(name string) { d.name = name }

// VirtualSize returns the guest-visible size in bytes.
func (d *Disk) VirtualSize() int64 { return d.virtualSize }

// ClusterSize returns the cluster size in bytes.
func (d *Disk) ClusterSize() int { return d.clusterSize }

// AllocatedClusters returns the number of clusters allocated locally
// (excluding the backing chain). Lazily backed clusters count: they are
// this disk's own content, merely not materialized yet.
func (d *Disk) AllocatedClusters() int {
	n := len(d.clusters)
	if d.lazy != nil {
		for ci := range d.lazy.offsets {
			if _, ok := d.clusters[ci]; ok {
				continue
			}
			if _, ok := d.dropped[ci]; ok {
				continue
			}
			n++
		}
	}
	return n
}

// AllocatedBytes returns the local allocation in bytes — the sparse
// "actual size" of the image, excluding the backing chain.
func (d *Disk) AllocatedBytes() int64 {
	return int64(d.AllocatedClusters()) * int64(d.clusterSize)
}

// Grow extends the virtual size. Shrinking is not supported.
func (d *Disk) Grow(newSize int64) error {
	if newSize < d.virtualSize {
		return fmt.Errorf("vdisk %s: cannot shrink from %d to %d", d.name, d.virtualSize, newSize)
	}
	d.virtualSize = newSize
	return nil
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
		span := d.clusterSize - co
		if span > len(p)-n {
			span = len(p) - n
		}
		if err := d.readSpan(p[n:n+span], ci, co); err != nil {
			return n, err
		}
		n += span
	}
	return n, nil
}

// resolve finds the layer that holds cluster ci, walking local clusters,
// then the disk's lazy source (unless the cluster was discarded), then the
// backing chain: it returns the cluster's data if some layer holds it in
// memory, or the lazy source and the cluster's byte offset in it, or
// neither for a cluster nothing ever wrote.
func (d *Disk) resolve(ci int64) (local []byte, src *lazySource, off int64) {
	for disk := d; disk != nil; disk = disk.backing {
		if c, ok := disk.clusters[ci]; ok {
			return c, nil, 0
		}
		if disk.lazy != nil {
			if _, gone := disk.dropped[ci]; !gone {
				if off, ok := disk.lazy.offsets[ci]; ok {
					return nil, disk.lazy, off
				}
			}
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

// WriteAt writes p at offset off, allocating clusters as needed. Partial
// cluster writes over backed clusters copy the old contents first
// (copy-on-write).
func (d *Disk) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 || off+int64(len(p)) > d.virtualSize {
		return 0, fmt.Errorf("vdisk %s: write [%d,%d) out of range [0,%d)", d.name, off, off+int64(len(p)), d.virtualSize)
	}
	n := 0
	for n < len(p) {
		ci := (off + int64(n)) / int64(d.clusterSize)
		co := int((off + int64(n)) % int64(d.clusterSize))
		span := d.clusterSize - co
		if span > len(p)-n {
			span = len(p) - n
		}
		c, ok := d.clusters[ci]
		if !ok {
			c = make([]byte, d.clusterSize)
			if span != d.clusterSize {
				// Partial write: preserve lazy/backing contents (COW).
				if err := d.readSpan(c, ci, 0); err != nil {
					return n, err
				}
			}
			d.clusters[ci] = c
		}
		copy(c[co:co+span], p[n:n+span])
		n += span
	}
	return n, nil
}

// Discard deallocates all clusters fully contained in [off, off+length),
// reclaiming their space. Reads of discarded clusters return backing data
// or zeros. This models qemu's discard/unmap support, which the
// Expelliarmus decomposer relies on when removing packages shrinks an
// image.
func (d *Disk) Discard(off, length int64) {
	if length <= 0 {
		return
	}
	first := (off + int64(d.clusterSize) - 1) / int64(d.clusterSize)
	last := (off + length) / int64(d.clusterSize) // exclusive
	for ci := first; ci < last; ci++ {
		delete(d.clusters, ci)
		if d.lazy != nil {
			// Mask (don't materialize) the lazy cluster so reads fall
			// through to backing/zeros and serialization drops it, exactly
			// as if a materialized cluster had been deleted.
			if _, ok := d.lazy.offsets[ci]; ok {
				if d.dropped == nil {
					d.dropped = make(map[int64]struct{})
				}
				d.dropped[ci] = struct{}{}
			}
		}
	}
}

// NewChild creates a copy-on-write child whose reads fall through to d.
// Writes to the child never modify d.
func (d *Disk) NewChild(name string) *Disk {
	return &Disk{
		name:        name,
		clusterSize: d.clusterSize,
		virtualSize: d.virtualSize,
		clusters:    make(map[int64][]byte),
		backing:     d,
	}
}

// Clone returns an independent copy of the disk (same backing). Local
// clusters are deep-copied; the lazy source — immutable by construction —
// is shared, with the discard mask copied so each clone discards
// independently.
func (d *Disk) Clone(name string) *Disk {
	c := &Disk{
		name:        name,
		clusterSize: d.clusterSize,
		virtualSize: d.virtualSize,
		clusters:    make(map[int64][]byte, len(d.clusters)),
		lazy:        d.lazy,
		backing:     d.backing,
	}
	for ci, data := range d.clusters {
		cp := make([]byte, len(data))
		copy(cp, data)
		c.clusters[ci] = cp
	}
	if len(d.dropped) > 0 {
		c.dropped = make(map[int64]struct{}, len(d.dropped))
		for ci := range d.dropped {
			c.dropped[ci] = struct{}{}
		}
	}
	return c
}

// Flatten merges the whole backing chain and the disk's own lazy source
// into local clusters, making it standalone: after Flatten the disk holds
// every byte itself and no longer references its deserialization source.
// The error is always nil for fully materialized disks; a lazily backed
// disk surfaces read failures from its source.
func (d *Disk) Flatten() error {
	for _, ci := range d.effectiveIndices() {
		if _, ok := d.clusters[ci]; ok {
			continue
		}
		c := make([]byte, d.clusterSize)
		if err := d.readSpan(c, ci, 0); err != nil {
			return err
		}
		d.clusters[ci] = c
	}
	d.lazy = nil
	d.dropped = nil
	d.backing = nil
	return nil
}

// effectiveIndices returns the sorted union of allocated cluster indices
// across all layers: local clusters, the lazy source minus its discard
// mask, and the backing chain — the cluster set Serialize encodes.
func (d *Disk) effectiveIndices() []int64 {
	var idx []int64
	for disk := d; disk != nil; disk = disk.backing {
		for ci := range disk.clusters {
			idx = append(idx, ci)
		}
		if disk.lazy != nil {
			for ci := range disk.lazy.offsets {
				if _, gone := disk.dropped[ci]; !gone {
					idx = append(idx, ci)
				}
			}
		}
	}
	slices.Sort(idx)
	return slices.Compact(idx)
}

// layout captures where each section of the serialized image lands. It is
// derived deterministically from the cluster set, so WriteTo can stream
// the image without building it.
type layout struct {
	cs             int64
	entriesPerL2   int64
	numL2          int64
	headerClusters int64
	l1Clusters     int64
	l2Start        int64
	dataStart      int64
	indices        []int64
	l2Order        []int64
	total          int64
}

// l2Tables is the number of L2 tables (each one cluster of 8-byte
// entries) that map a disk of the given virtual size.
func l2Tables(virtualSize, cs int64) int64 {
	entriesPerL2 := cs / 8
	numClusters := (virtualSize + cs - 1) / cs
	return (numClusters + entriesPerL2 - 1) / entriesPerL2
}

func (d *Disk) layoutFor(indices []int64) layout {
	cs := int64(d.clusterSize)
	entriesPerL2 := cs / 8
	numL2 := l2Tables(d.virtualSize, cs)

	// Which L2 tables are needed?
	l2Needed := make(map[int64]bool)
	for _, ci := range indices {
		l2Needed[ci/entriesPerL2] = true
	}
	l2Order := make([]int64, 0, len(l2Needed))
	for t := range l2Needed {
		l2Order = append(l2Order, t)
	}
	sort.Slice(l2Order, func(i, j int) bool { return l2Order[i] < l2Order[j] })

	// Like real qcow2, every section is cluster-aligned: one header
	// cluster, then the L1 table rounded up to whole clusters, then the L2
	// tables (one cluster each), then the data clusters. Alignment matters
	// beyond fidelity — it is what lets fixed-size block deduplication
	// find identical clusters across images.
	headerClusters := (int64(headerSize) + cs - 1) / cs
	if headerClusters < 1 {
		headerClusters = 1
	}
	l1Bytes := numL2 * 8
	l1Clusters := (l1Bytes + cs - 1) / cs
	l2Start := (headerClusters + l1Clusters) * cs
	dataStart := l2Start + int64(len(l2Order))*cs
	return layout{
		cs:             cs,
		entriesPerL2:   entriesPerL2,
		numL2:          numL2,
		headerClusters: headerClusters,
		l1Clusters:     l1Clusters,
		l2Start:        l2Start,
		dataStart:      dataStart,
		indices:        indices,
		l2Order:        l2Order,
		total:          dataStart + int64(len(indices))*cs,
	}
}

// WriteTo streams the serialized image (identical bytes to Serialize) to
// w, one section buffer at a time: header and L1 up front, then each L2
// table through a single reused cluster buffer, then the data clusters a
// pooled chunk at a time. Peak memory is a few cluster buffers, one chunk
// and the offset bookkeeping — independent of image size — so a retrieval
// can serve a gigabyte image straight to a sink without ever holding it.
func (d *Disk) WriteTo(w io.Writer) (int64, error) {
	lo := d.layoutFor(d.effectiveIndices())
	var written int64
	emit := func(b []byte) error {
		n, err := w.Write(b)
		written += int64(n)
		if err != nil {
			return err
		}
		if n < len(b) {
			return io.ErrShortWrite
		}
		return nil
	}

	// Header cluster(s).
	hdr := make([]byte, lo.headerClusters*lo.cs)
	copy(hdr, Magic)
	h := hdr[len(Magic):]
	binary.BigEndian.PutUint32(h[0:], 1) // version
	binary.BigEndian.PutUint32(h[4:], uint32(d.clusterSize))
	binary.BigEndian.PutUint64(h[8:], uint64(d.virtualSize))
	binary.BigEndian.PutUint64(h[16:], uint64(lo.numL2))
	binary.BigEndian.PutUint64(h[24:], uint64(len(lo.indices)))
	if err := emit(hdr); err != nil {
		return written, err
	}

	// L1 table: offset of each L2 table, 0 = absent.
	l1 := make([]byte, lo.l1Clusters*lo.cs)
	for i, t := range lo.l2Order {
		binary.BigEndian.PutUint64(l1[t*8:], uint64(lo.l2Start+int64(i)*lo.cs))
	}
	if err := emit(l1); err != nil {
		return written, err
	}

	// L2 tables: offset of each data cluster, 0 = unallocated. Data
	// cluster offsets follow from each cluster's rank in the sorted index
	// list, so one pass over indices in step with l2Order fills every
	// table through a single reused buffer.
	l2 := make([]byte, lo.cs)
	next := 0 // rank of the next index to place
	for _, t := range lo.l2Order {
		for i := range l2 {
			l2[i] = 0
		}
		base := t * lo.entriesPerL2
		for next < len(lo.indices) && lo.indices[next] < base+lo.entriesPerL2 {
			ci := lo.indices[next]
			off := lo.dataStart + int64(next)*lo.cs
			binary.BigEndian.PutUint64(l2[(ci-base)*8:], uint64(off))
			next++
		}
		if err := emit(l2); err != nil {
			return written, err
		}
	}

	// Data clusters, a pooled chunk of them per Write. Each cluster's layer
	// is resolved once; clusters that sit back to back in one lazy source
	// accumulate into a run that a single ReadAt fills.
	chunk := chunkpool.Get()
	defer chunkpool.Put(chunk)
	buf := *chunk
	if lo.cs > int64(len(buf)) {
		buf = make([]byte, lo.cs)
	}
	perChunk := len(buf) / d.clusterSize
	var run struct {
		src        *lazySource
		first      int64 // the run's first cluster
		off        int64 // where the run starts in src
		start, end int   // the bytes of buf it fills
	}
	readRun := func() error {
		if run.src == nil {
			return nil
		}
		if _, err := run.src.ra.ReadAt(buf[run.start:run.end], run.off); err != nil {
			return fmt.Errorf("vdisk %s: lazy read of %d bytes from cluster %d: %w", d.name, run.end-run.start, run.first, err)
		}
		run.src = nil
		return nil
	}
	for rest := lo.indices; len(rest) > 0; {
		batch := rest[:min(perChunk, len(rest))]
		rest = rest[len(batch):]
		for i, ci := range batch {
			at := i * d.clusterSize
			local, src, off := d.resolve(ci)
			if src != nil && src == run.src && off == run.off+int64(run.end-run.start) {
				run.end += d.clusterSize
				continue
			}
			if err := readRun(); err != nil {
				return written, err
			}
			switch {
			case local != nil:
				copy(buf[at:], local)
			case src != nil:
				run.src, run.first, run.off, run.start, run.end = src, ci, off, at, at+d.clusterSize
			default:
				clear(buf[at : at+d.clusterSize])
			}
		}
		if err := readRun(); err != nil {
			return written, err
		}
		if err := emit(buf[:len(batch)*d.clusterSize]); err != nil {
			return written, err
		}
	}
	return written, nil
}

// SerializedBytes returns the exact length of the serialized image without
// producing any of it.
func (d *Disk) SerializedBytes() int64 {
	return d.layoutFor(d.effectiveIndices()).total
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
// materializing its data clusters: the mapping tables are parsed (through
// one reused table buffer) and each cluster is remembered as an offset
// into ra, to be read on demand. The returned disk references ra for its
// lifetime — or until Flatten — so ra must stay readable; writes never
// touch it (copy-on-write), and Discard masks lazy clusters rather than
// materializing them.
func DeserializeLazy(name string, ra io.ReaderAt, size int64) (*Disk, error) {
	var hdrBuf [headerSize]byte
	if size < headerSize {
		return nil, fmt.Errorf("vdisk: bad magic")
	}
	if _, err := ra.ReadAt(hdrBuf[:], 0); err != nil {
		return nil, fmt.Errorf("vdisk: read header: %w", err)
	}
	if !bytes.Equal(hdrBuf[:len(Magic)], Magic) {
		return nil, fmt.Errorf("vdisk: bad magic")
	}
	hdr := hdrBuf[len(Magic):]
	version := binary.BigEndian.Uint32(hdr[0:])
	if version != 1 {
		return nil, fmt.Errorf("vdisk: unsupported version %d", version)
	}
	// The image may come straight off the network, so every count the
	// header declares is checked against the bytes actually present
	// before anything is sized by it: a cluster holds at least one table
	// entry and at most the whole image (the header alone occupies one),
	// the L2 count is the one the virtual size implies (what WriteTo
	// would emit), and the L1 table it sizes fits in the image.
	cs := int64(binary.BigEndian.Uint32(hdr[4:]))
	if cs < 8 || cs&(cs-1) != 0 || cs > size {
		return nil, fmt.Errorf("vdisk: corrupt cluster size %d", cs)
	}
	virtualSize := int64(binary.BigEndian.Uint64(hdr[8:]))
	numL2 := int64(binary.BigEndian.Uint64(hdr[16:]))
	entriesPerL2 := cs / 8
	if virtualSize < 0 || virtualSize > math.MaxInt64-cs || numL2 != l2Tables(virtualSize, cs) {
		return nil, fmt.Errorf("vdisk: corrupt header: %d L2 tables for virtual size %d", numL2, virtualSize)
	}
	l1Start := (int64(headerSize) + cs - 1) / cs * cs
	if numL2 > (size-l1Start)/8 {
		return nil, fmt.Errorf("vdisk: truncated L1 table")
	}
	d := New(name, virtualSize, int(cs))
	l1 := make([]byte, numL2*8)
	if numL2 > 0 {
		if _, err := ra.ReadAt(l1, l1Start); err != nil {
			return nil, fmt.Errorf("vdisk: read L1 table: %w", err)
		}
	}
	offsets := make(map[int64]int64)
	l2 := make([]byte, cs)
	for t := int64(0); t < numL2; t++ {
		l2Off := int64(binary.BigEndian.Uint64(l1[t*8:]))
		if l2Off == 0 {
			continue
		}
		if l2Off < 0 || l2Off > size-cs {
			return nil, fmt.Errorf("vdisk: L2 table %d out of bounds", t)
		}
		if _, err := ra.ReadAt(l2, l2Off); err != nil {
			return nil, fmt.Errorf("vdisk: read L2 table %d: %w", t, err)
		}
		for e := int64(0); e < entriesPerL2; e++ {
			dataOff := int64(binary.BigEndian.Uint64(l2[e*8:]))
			if dataOff == 0 {
				continue
			}
			if dataOff < 0 || dataOff > size-cs {
				return nil, fmt.Errorf("vdisk: cluster %d out of bounds", t*entriesPerL2+e)
			}
			offsets[t*entriesPerL2+e] = dataOff
		}
	}
	if len(offsets) > 0 {
		d.lazy = &lazySource{ra: ra, offsets: offsets}
	}
	return d, nil
}
