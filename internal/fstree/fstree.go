// Package fstree implements a small inode/extent filesystem that lives
// inside a vdisk, standing in for the guest ext4 filesystem of the paper's
// VMIs. Every byte of file data, directory content and filesystem metadata
// is stored in the disk's clusters, so the disk's sparse allocated size and
// its serialized qcow2-like form faithfully reflect filesystem contents —
// including shrinkage when the Expelliarmus decomposer removes packages.
//
// Layout (block size = disk cluster size):
//
//	block 0                superblock
//	blocks 1..b            block allocation bitmap
//	blocks b+1..b+i        inode table (64-byte inodes, up to 6 extents)
//	remaining blocks       file and directory data
//
// Directories store their entries as ordinary file data (inode number,
// type, name records). The root directory is inode 0.
//
// The block bitmap and the inode table are mirrored in memory. Mount reads
// each once, and nothing but setBlocks and writeInode changes them, each
// after the disk write it mirrors succeeded; a cursor in each marks where
// free space may begin. So allocation and inode reads touch no disk. The
// table's mirror is kept in pages that CloneOnto shares: each FS copies a
// page on its first write to it, as a vdisk clone does its clusters. The
// one cache is listings, each directory's parsed entries as first read:
// writeDirents stores them and writeInode drops a freed inode's. An FS
// owns the listings it parsed or wrote since it was last cloned, and edits
// those in place, a name inserted at its sorted place or deleted where it
// is; the first edit of a listing CloneOnto shared copies it. So nothing
// may hold a listing across a change to its directory. Read-only
// operations only read the mirrors and fill listings under a mutex, which
// is what lets many goroutines read one FS at once. A disk has one FS: a
// write behind its back is seen by neither the mirrors nor the cache.
package fstree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"maps"
	"math/bits"
	"path"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"expelliarmus/internal/vdisk"
)

// Magic identifies a formatted filesystem.
var Magic = []byte("EXFS")

const (
	inodeSize  = 64
	maxExtents = 6
	tablePage  = 4096 // bytes per page of the inode table's mirror

	modeFree = 0
	modeFile = 1
	modeDir  = 2
)

// RootInode is the inode number of the root directory.
const RootInode uint32 = 0

type extent struct {
	start  uint32 // first block
	blocks uint32 // run length
}

type inode struct {
	mode byte
	n    int // extents in use
	size int64
	ext  [maxExtents]extent
}

func (ino *inode) extents() []extent { return ino.ext[:ino.n] }

// FileInfo describes a file or directory.
type FileInfo struct {
	Path  string
	Size  int64
	IsDir bool
}

// FS is a mounted filesystem. Mutations need exclusive access; read-only
// operations may run concurrently with each other.
type FS struct {
	disk       *vdisk.Disk
	blockSize  int
	total      uint32 // total blocks
	bitmapBlk  uint32 // blocks used by the bitmap
	inodeBlk   uint32 // blocks used by the inode table
	maxInodes  uint32
	dataStart  uint32
	bitmap     []byte   // in-memory mirror, written through
	table      [][]byte // the inode table's mirror in pages, written through
	owned      []bool   // the pages of table this FS may write in place
	freeBlock  uint32   // no data block below it is free
	freeInode  uint32   // no inode below it is free
	usedBlocks uint32
	files      int
	dirs       int

	mu       *sync.Mutex        // guards listings and own
	listings map[uint32]listing // parsed directories, written through
	own      uint64             // the owner token of the listings this FS may edit in place
	dirBuf   []byte             // the last directory encoded, reused by the next
}

// owners issues the FSes' owner tokens.
var owners atomic.Uint64

// listing is a directory's parsed entries and the token of the FS that
// owns them.
type listing struct {
	entries []dirent
	owner   uint64
}

// geometry returns the bitmap and inode-table block counts Format gives a
// filesystem of total blocks and maxInodes inodes. The arithmetic is 64-bit
// because Mount feeds it counts from an untrusted superblock.
func geometry(total, maxInodes uint32, bs int) (bitmapBlk, inodeBlk uint64) {
	bitmapBytes := (uint64(total) + 7) / 8
	bitmapBlk = (bitmapBytes + uint64(bs) - 1) / uint64(bs)
	inodeBlk = (uint64(maxInodes)*inodeSize + uint64(bs) - 1) / uint64(bs)
	return bitmapBlk, inodeBlk
}

// Format creates a fresh filesystem on the disk, sized for maxInodes files
// and directories, and returns it mounted.
func Format(d *vdisk.Disk, maxInodes uint32) (*FS, error) {
	bs := d.ClusterSize()
	total := uint32(d.VirtualSize() / int64(bs))
	if total < 8 {
		return nil, fmt.Errorf("fstree: disk too small (%d blocks)", total)
	}
	bitmapBlk, inodeBlk := geometry(total, maxInodes, bs)
	dataStart := 1 + bitmapBlk + inodeBlk
	if dataStart >= uint64(total) {
		return nil, fmt.Errorf("fstree: metadata (%d blocks) exceeds disk (%d blocks)", dataStart, total)
	}
	fs := &FS{
		disk:      d,
		blockSize: bs,
		total:     total,
		bitmapBlk: uint32(bitmapBlk),
		inodeBlk:  uint32(inodeBlk),
		maxInodes: maxInodes,
		dataStart: uint32(dataStart),
		bitmap:    make([]byte, int(bitmapBlk)*bs),
		freeBlock: uint32(dataStart),
		mu:        new(sync.Mutex),
		listings:  map[uint32]listing{},
		own:       owners.Add(1),
	}
	fs.mirrorTable(make([]byte, int(maxInodes)*inodeSize))
	// Reserve metadata blocks.
	for b := uint32(0); b < fs.dataStart; b++ {
		fs.bitmap[b/8] |= 1 << (b % 8)
	}
	if err := fs.flushBitmap(0, fs.dataStart); err != nil {
		return nil, err
	}
	// Superblock.
	sb := make([]byte, bs)
	copy(sb, Magic)
	binary.BigEndian.PutUint32(sb[4:], uint32(bs))
	binary.BigEndian.PutUint32(sb[8:], total)
	binary.BigEndian.PutUint32(sb[12:], fs.bitmapBlk)
	binary.BigEndian.PutUint32(sb[16:], fs.inodeBlk)
	binary.BigEndian.PutUint32(sb[20:], maxInodes)
	if _, err := d.WriteAt(sb, 0); err != nil {
		return nil, err
	}
	// Root directory.
	if err := fs.writeInode(RootInode, inode{mode: modeDir}); err != nil {
		return nil, err
	}
	fs.dirs = 1
	fs.usedBlocks = fs.dataStart
	return fs, nil
}

// Mount opens an existing filesystem on the disk.
func Mount(d *vdisk.Disk) (*FS, error) {
	bs := d.ClusterSize()
	sb := make([]byte, bs)
	if _, err := d.ReadAt(sb, 0); err != nil {
		return nil, fmt.Errorf("fstree: read superblock: %w", err)
	}
	if !bytes.Equal(sb[:4], Magic) {
		return nil, fmt.Errorf("fstree: bad magic (unformatted disk?)")
	}
	if int(binary.BigEndian.Uint32(sb[4:])) != bs {
		return nil, fmt.Errorf("fstree: superblock block size %d != cluster size %d",
			binary.BigEndian.Uint32(sb[4:]), bs)
	}
	fs := &FS{
		disk:      d,
		blockSize: bs,
		total:     binary.BigEndian.Uint32(sb[8:]),
		bitmapBlk: binary.BigEndian.Uint32(sb[12:]),
		inodeBlk:  binary.BigEndian.Uint32(sb[16:]),
		maxInodes: binary.BigEndian.Uint32(sb[20:]),
		mu:        new(sync.Mutex),
		listings:  map[uint32]listing{},
		own:       owners.Add(1),
	}
	// The image may come straight off the network, so the geometry is
	// checked against the disk before anything is sized or indexed by it:
	// the blocks exist, the bitmap is the one Format lays out for them, the
	// inode table holds the inodes it claims, and data blocks remain.
	wantBitmap, minInode := geometry(fs.total, fs.maxInodes, bs)
	dataStart := 1 + uint64(fs.bitmapBlk) + uint64(fs.inodeBlk)
	switch {
	case uint64(fs.total)*uint64(bs) > uint64(d.VirtualSize()):
		return nil, fmt.Errorf("fstree: superblock claims %d blocks of %d bytes on a %d-byte disk", fs.total, bs, d.VirtualSize())
	case uint64(fs.bitmapBlk) != wantBitmap:
		return nil, fmt.Errorf("fstree: superblock claims %d bitmap blocks, %d blocks need %d", fs.bitmapBlk, fs.total, wantBitmap)
	case uint64(fs.inodeBlk) < minInode:
		return nil, fmt.Errorf("fstree: superblock claims %d inodes in %d inode-table blocks", fs.maxInodes, fs.inodeBlk)
	case dataStart >= uint64(fs.total):
		return nil, fmt.Errorf("fstree: metadata (%d blocks) exceeds disk (%d blocks)", dataStart, fs.total)
	}
	fs.dataStart = uint32(dataStart)
	fs.freeBlock = fs.dataStart
	fs.bitmap = make([]byte, int(fs.bitmapBlk)*bs)
	if _, err := d.ReadAt(fs.bitmap, int64(bs)); err != nil {
		return nil, fmt.Errorf("fstree: read bitmap: %w", err)
	}
	for b := uint32(0); b < fs.total; b++ {
		if fs.blockUsed(b) {
			fs.usedBlocks++
		}
	}
	table := make([]byte, int64(fs.maxInodes)*inodeSize)
	if _, err := d.ReadAt(table, fs.inodeOffset(0)); err != nil {
		return nil, fmt.Errorf("fstree: read inode table: %w", err)
	}
	fs.mirrorTable(table)
	for i := 0; i < len(table); i += inodeSize {
		switch table[i] {
		case modeFile:
			fs.files++
		case modeDir:
			fs.dirs++
		}
	}
	return fs, nil
}

// CloneOnto returns a copy of fs mounted on d, which must hold the bytes
// fs's disk holds (a vdisk Clone or CloneOver of it): what Mount would
// return for d, with fs's listings, without reading d. The bitmap's mirror
// is copied. The inode table's pages and the listings are shared: both
// fs and the copy get new owner tokens, so each copies a page or a
// listing on its first change to it. fs may be read concurrently, not
// mutated.
func (fs *FS) CloneOnto(d *vdisk.Disk) *FS {
	fs.mu.Lock()
	c := *fs
	c.listings = maps.Clone(fs.listings)
	clear(fs.owned)
	fs.own = owners.Add(1)
	fs.mu.Unlock()
	c.mu, c.disk, c.own, c.dirBuf = new(sync.Mutex), d, owners.Add(1), nil
	c.bitmap, c.table, c.owned = slices.Clone(fs.bitmap), slices.Clone(fs.table), make([]bool, len(fs.table))
	return &c
}

// mirrorTable makes table, the whole inode table, the mirror: pages of
// it, each owned by fs.
func (fs *FS) mirrorTable(table []byte) {
	fs.table = nil
	for len(table) > 0 {
		n := min(tablePage, len(table))
		fs.table, table = append(fs.table, table[:n:n]), table[n:]
	}
	fs.owned = slices.Repeat([]bool{true}, len(fs.table))
}

// inodeBytes returns inode num's slot of the mirror.
func (fs *FS) inodeBytes(num uint32) []byte {
	const perPage = tablePage / inodeSize
	return fs.table[num/perPage][num%perPage*inodeSize:][:inodeSize]
}

// Disk returns the underlying disk.
func (fs *FS) Disk() *vdisk.Disk { return fs.disk }

// NumFiles returns the number of regular files.
func (fs *FS) NumFiles() int { return fs.files }

// UsedBytes returns the bytes consumed by allocated blocks (metadata and
// data) — the "mounted size" of Table II.
func (fs *FS) UsedBytes() int64 { return int64(fs.usedBlocks) * int64(fs.blockSize) }

// --- inode table ---

func (fs *FS) inodeOffset(num uint32) int64 {
	return int64(1+fs.bitmapBlk)*int64(fs.blockSize) + int64(num)*inodeSize
}

// readInode decodes and validates inode num from the table's mirror.
func (fs *FS) readInode(num uint32) (inode, error) {
	if num >= fs.maxInodes {
		return inode{}, fmt.Errorf("fstree: inode %d out of range", num)
	}
	raw := fs.inodeBytes(num)
	ino := inode{mode: raw[0], n: int(raw[1]), size: int64(binary.BigEndian.Uint64(raw[2:]))}
	if ino.n > maxExtents {
		return inode{}, fmt.Errorf("fstree: inode %d corrupt extent count %d", num, ino.n)
	}
	// Extents index the bitmap when freed and size a buffer when read, so
	// an inode off the wire must keep them inside the data area and its
	// size inside them.
	var covered int64
	for i := range ino.n {
		e := extent{
			start:  binary.BigEndian.Uint32(raw[10+i*8:]),
			blocks: binary.BigEndian.Uint32(raw[14+i*8:]),
		}
		if e.start < fs.dataStart || uint64(e.start)+uint64(e.blocks) > uint64(fs.total) {
			return inode{}, fmt.Errorf("fstree: inode %d corrupt extent [%d,+%d)", num, e.start, e.blocks)
		}
		ino.ext[i] = e
		covered += int64(e.blocks) * int64(fs.blockSize)
	}
	if ino.size < 0 || ino.size > covered {
		return inode{}, fmt.Errorf("fstree: inode %d corrupt size %d over %d bytes of extents", num, ino.size, covered)
	}
	return ino, nil
}

// writeInode writes ino as inode num, then its slot of the mirror.
func (fs *FS) writeInode(num uint32, ino inode) error {
	if num >= fs.maxInodes {
		return fmt.Errorf("fstree: inode %d out of range", num)
	}
	var raw [inodeSize]byte
	raw[0] = ino.mode
	raw[1] = byte(ino.n)
	binary.BigEndian.PutUint64(raw[2:], uint64(ino.size))
	for i, e := range ino.extents() {
		binary.BigEndian.PutUint32(raw[10+i*8:], e.start)
		binary.BigEndian.PutUint32(raw[14+i*8:], e.blocks)
	}
	if _, err := fs.disk.WriteAt(raw[:], fs.inodeOffset(num)); err != nil {
		return err
	}
	if pg := num / (tablePage / inodeSize); !fs.owned[pg] {
		fs.table[pg], fs.owned[pg] = slices.Clone(fs.table[pg]), true
	}
	copy(fs.inodeBytes(num), raw[:])
	if ino.mode == modeFree {
		fs.freeInode = min(fs.freeInode, num)
		fs.mu.Lock()
		delete(fs.listings, num)
		fs.mu.Unlock()
	}
	return nil
}

// allocInode returns the lowest free inode. It does not claim it: the
// inode stays free until the caller's writeInode.
func (fs *FS) allocInode() (uint32, error) {
	for ; fs.freeInode < fs.maxInodes; fs.freeInode++ {
		if fs.inodeBytes(fs.freeInode)[0] == modeFree {
			return fs.freeInode, nil
		}
	}
	return 0, fmt.Errorf("fstree: out of inodes (%d)", fs.maxInodes)
}

// --- block allocation ---

func (fs *FS) blockUsed(b uint32) bool { return fs.bitmap[b/8]&(1<<(b%8)) != 0 }

func (fs *FS) setBlocks(start, n uint32, used bool) error {
	for b := start; b < start+n; b++ {
		if used {
			fs.bitmap[b/8] |= 1 << (b % 8)
		} else {
			fs.bitmap[b/8] &^= 1 << (b % 8)
		}
	}
	if used {
		fs.usedBlocks += n
	} else {
		fs.usedBlocks -= n
		if start < fs.freeBlock {
			fs.freeBlock = start
		}
	}
	return fs.flushBitmap(start, n)
}

// flushBitmap writes through the bitmap blocks covering [start,start+n).
func (fs *FS) flushBitmap(start, n uint32) error {
	bs := uint32(fs.blockSize)
	firstByte := start / 8
	lastByte := (start + n - 1) / 8
	firstBlk := firstByte / bs
	lastBlk := lastByte / bs
	for blk := firstBlk; blk <= lastBlk; blk++ {
		off := int64(1+blk) * int64(bs)
		_, err := fs.disk.WriteAt(fs.bitmap[blk*bs:(blk+1)*bs], off)
		if err != nil {
			return err
		}
	}
	return nil
}

// word returns bitmap bits [64k, 64k+64), bit i of the word being block
// 64k+i's; bits past the bitmap's end read as free. A bitmap whose block
// size is below 8 need not hold whole words.
func (fs *FS) word(k uint64) uint64 {
	if at := k * 8; at+8 <= uint64(len(fs.bitmap)) {
		return binary.LittleEndian.Uint64(fs.bitmap[at:])
	}
	var w [8]byte
	copy(w[:], fs.bitmap[min(k*8, uint64(len(fs.bitmap))):])
	return binary.LittleEndian.Uint64(w[:])
}

// nextFree returns the first free block at or after b, fs.total if none
// (b itself past the end).
func (fs *FS) nextFree(b uint32) uint32 {
	for i := uint64(b); i < uint64(fs.total); i = i/64*64 + 64 {
		if free := ^fs.word(i/64) >> (i % 64); free != 0 {
			return uint32(min(i+uint64(bits.TrailingZeros64(free)), uint64(fs.total)))
		}
	}
	return max(b, fs.total)
}

// runLen measures the free run starting at block b, up to limit blocks.
func (fs *FS) runLen(b, limit uint32) uint32 {
	end := min(uint64(b)+uint64(limit), uint64(fs.total))
	i := uint64(b)
	for i < end {
		if used := fs.word(i/64) >> (i % 64); used != 0 {
			i += uint64(bits.TrailingZeros64(used))
			break
		}
		i = i/64*64 + 64
	}
	return uint32(min(i, end) - min(uint64(b), end))
}

// findExtents chooses free space for n blocks without claiming it: the
// first contiguous run that fits if one exists, otherwise the largest free
// runs (so files stay within the inode's maxExtents even when small holes
// litter the bitmap).
func (fs *FS) findExtents(n uint32) ([]extent, error) {
	if n == 0 {
		return nil, nil
	}
	// First fit, from the lowest block that can be free; a run is measured
	// no further than the n blocks that decide it.
	fs.freeBlock = fs.nextFree(fs.freeBlock)
	for b := fs.freeBlock; b < fs.total; {
		l := fs.runLen(b, n)
		if l == n {
			return []extent{{start: b, blocks: n}}, nil
		}
		b = fs.nextFree(b + l)
	}
	// Fragmented: no run fits, so measuring to n measures each one whole.
	// Take the largest first (ties: lowest start) to minimise extent count.
	var runs []extent
	for b := fs.freeBlock; b < fs.total; {
		l := fs.runLen(b, n)
		runs = append(runs, extent{start: b, blocks: l})
		b = fs.nextFree(b + l)
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
			return nil, fmt.Errorf("fstree: file too fragmented (> %d extents for %d blocks)", maxExtents, n)
		}
	}
	if remaining > 0 {
		return nil, fmt.Errorf("fstree: no space (%d blocks short of %d)", remaining, n)
	}
	// Keep extents in disk order for readability and determinism.
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out, nil
}

// allocExtents claims the blocks findExtents chooses.
func (fs *FS) allocExtents(n uint32) ([]extent, error) {
	out, err := fs.findExtents(n)
	if err != nil {
		return nil, err
	}
	for _, e := range out {
		if err := fs.setBlocks(e.start, e.blocks, true); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (fs *FS) freeExtents(extents []extent) error {
	for _, e := range extents {
		if err := fs.setBlocks(e.start, e.blocks, false); err != nil {
			return err
		}
		// Return the clusters to the disk so its sparse size shrinks.
		fs.disk.Discard(int64(e.start)*int64(fs.blockSize), int64(e.blocks)*int64(fs.blockSize))
	}
	return nil
}

// --- data I/O ---

func (fs *FS) readData(ino inode) ([]byte, error) {
	out := make([]byte, ino.size)
	var off int64
	for _, e := range ino.extents() {
		span := int64(e.blocks) * int64(fs.blockSize)
		if span > ino.size-off {
			span = ino.size - off
		}
		if _, err := fs.disk.ReadAt(out[off:off+span], int64(e.start)*int64(fs.blockSize)); err != nil {
			return nil, err
		}
		off += span
	}
	if off != ino.size {
		return nil, fmt.Errorf("fstree: inode extents cover %d bytes short of size %d", ino.size-off, ino.size)
	}
	return out, nil
}

// writeData frees ino's extents and writes data to new ones. It returns
// the inode that describes them.
func (fs *FS) writeData(ino inode, data []byte) (inode, error) {
	if err := fs.freeExtents(ino.extents()); err != nil {
		return inode{}, err
	}
	extents, err := fs.allocExtents(uint32((len(data) + fs.blockSize - 1) / fs.blockSize))
	if err != nil {
		return inode{}, err
	}
	out := inode{mode: ino.mode, size: int64(len(data))}
	out.n = copy(out.ext[:], extents)
	off := 0
	for _, e := range extents {
		span := int(e.blocks) * fs.blockSize
		if span > len(data)-off {
			span = len(data) - off
		}
		if _, err := fs.disk.WriteAt(data[off:off+span], int64(e.start)*int64(fs.blockSize)); err != nil {
			return inode{}, err
		}
		off += span
	}
	return out, nil
}

// --- directories ---

type dirent struct {
	ino  uint32
	mode byte
	name string
}

func parseDir(data []byte) ([]dirent, error) {
	var out []dirent
	for len(data) > 0 {
		if len(data) < 5 {
			return nil, io.ErrUnexpectedEOF
		}
		nameLen, n := binary.Uvarint(data[5:])
		if n <= 0 {
			return nil, fmt.Errorf("corrupt entry name length")
		}
		name := data[5+n:]
		if nameLen > uint64(len(name)) {
			return nil, fmt.Errorf("entry name length %d exceeds remaining %d", nameLen, len(name))
		}
		out = append(out, dirent{
			ino:  binary.BigEndian.Uint32(data),
			mode: data[4],
			name: string(name[:nameLen]),
		})
		data = name[nameLen:]
	}
	return out, nil
}

// encodeDir sorts entries in place, unless their names already ascend,
// and appends their encoding to buf.
func encodeDir(buf []byte, entries []dirent) []byte {
	if !ascending(entries) {
		sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	}
	size := 0
	for _, e := range entries {
		size += 5 + uvarintLen(uint64(len(e.name))) + len(e.name)
	}
	buf = slices.Grow(buf, size)
	for _, e := range entries {
		buf = binary.BigEndian.AppendUint32(buf, e.ino)
		buf = append(buf, e.mode)
		buf = binary.AppendUvarint(buf, uint64(len(e.name)))
		buf = append(buf, e.name...)
	}
	return buf
}

// ascending reports whether the entries' names strictly ascend, as those
// of every directory this package writes do; a foreign image's may not.
func ascending(entries []dirent) bool {
	for i := 1; i < len(entries); i++ {
		if entries[i-1].name >= entries[i].name {
			return false
		}
	}
	return true
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// readDirents returns the directory's entries, parsed on their first use,
// and its inode. The entries are the cache's: a caller only reads them, and
// not across a change to the directory, which may edit them in place.
func (fs *FS) readDirents(num uint32) ([]dirent, inode, error) {
	ino, err := fs.readInode(num)
	if err != nil {
		return nil, inode{}, err
	}
	if ino.mode != modeDir {
		return nil, inode{}, fmt.Errorf("fstree: inode %d is not a directory", num)
	}
	fs.mu.Lock()
	l, ok := fs.listings[num]
	fs.mu.Unlock()
	if ok {
		return l.entries, ino, nil
	}
	data, err := fs.readData(ino)
	if err != nil {
		return nil, inode{}, err
	}
	entries, err := parseDir(data)
	if err != nil {
		return nil, inode{}, fmt.Errorf("fstree: corrupt directory %d: %w", num, err)
	}
	fs.mu.Lock()
	fs.listings[num] = listing{entries, fs.own}
	fs.mu.Unlock()
	return entries, ino, nil
}

// writeDirents writes entries, which become the cache's and fs's own, as
// the directory's contents.
func (fs *FS) writeDirents(num uint32, ino inode, entries []dirent) error {
	fs.dirBuf = encodeDir(fs.dirBuf[:0], entries)
	ino, err := fs.writeData(ino, fs.dirBuf)
	if err != nil {
		return err
	}
	if err := fs.writeInode(num, ino); err != nil {
		return err
	}
	fs.mu.Lock()
	fs.listings[num] = listing{entries, fs.own}
	fs.mu.Unlock()
	return nil
}

// editable returns directory num's listing, entries, in a slice fs may
// edit, and whether that is the cached slice itself: it is when fs owns
// it and its names ascend. Otherwise it is a copy with room to grow, and
// encodeDir sorts it as it always sorted a listing whose names are out of
// order.
func (fs *FS) editable(num uint32, entries []dirent, sorted bool) ([]dirent, bool) {
	fs.mu.Lock()
	mine := fs.listings[num].owner == fs.own
	fs.mu.Unlock()
	if mine && sorted {
		return entries, true
	}
	return append(make([]dirent, 0, len(entries)+len(entries)/4+4), entries...), false
}

// addEntry adds e, whose name the directory lacks, to directory num, whose
// inode and listing are ino and entries, and writes it. After a failed
// write the listing reads as it did before.
func (fs *FS) addEntry(num uint32, ino inode, entries []dirent, e dirent) error {
	i, sorted := len(entries), ascending(entries)
	if sorted {
		i, _ = slices.BinarySearchFunc(entries, e.name, func(d dirent, name string) int { return strings.Compare(d.name, name) })
	}
	entries, inPlace := fs.editable(num, entries, sorted)
	entries = slices.Insert(entries, i, e)
	err := fs.writeDirents(num, ino, entries)
	if err != nil && inPlace {
		_ = slices.Delete(entries, i, i+1) // the cached slice, one shorter, holds the old entries again
	}
	return err
}

// removeEntry deletes entry i from directory num, whose inode and listing
// are ino and entries, and writes it. After a failed write the listing
// reads as it did before.
func (fs *FS) removeEntry(num uint32, ino inode, entries []dirent, i int) error {
	e := entries[i]
	entries, inPlace := fs.editable(num, entries, ascending(entries))
	entries = slices.Delete(entries, i, i+1)
	err := fs.writeDirents(num, ino, entries)
	if err != nil && inPlace {
		_ = slices.Insert(entries, i, e) // within the cached slice's length again
	}
	return err
}

// parent splits the cleaned p into its parent directory and last name;
// the root has no name.
func parent(p string) (dir, name string) {
	c := cleanPath(p)
	i := strings.LastIndexByte(c, '/')
	return c[:max(i, 1)], c[i+1:]
}

// cleanPath is path.Clean("/" + p), which returns a rooted path that is
// already clean as it is, without allocating.
func cleanPath(p string) string {
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	return path.Clean(p)
}

// lookup resolves a path to (inode number, inode). The root resolves to
// RootInode.
func (fs *FS) lookup(p string) (uint32, inode, error) {
	cur := RootInode
	for rest := cleanPath(p)[1:]; rest != ""; {
		var part string
		part, rest, _ = strings.Cut(rest, "/")
		entries, _, err := fs.readDirents(cur)
		if err != nil {
			return 0, inode{}, err
		}
		found := false
		for _, e := range entries {
			if e.name == part {
				cur = e.ino
				found = true
				break
			}
		}
		if !found {
			return 0, inode{}, fmt.Errorf("fstree: %s: no such file or directory", p)
		}
	}
	ino, err := fs.readInode(cur)
	if err != nil {
		return 0, inode{}, err
	}
	return cur, ino, nil
}

// Exists reports whether the path exists.
func (fs *FS) Exists(p string) bool {
	_, _, err := fs.lookup(p)
	return err == nil
}

// CountFiles returns how many of paths name an existing regular file. It
// reads each parent directory once instead of resolving every path from
// the root, so counting a package's files costs one lookup per directory.
func (fs *FS) CountFiles(paths []string) int {
	byDir := map[string][]string{}
	for _, p := range paths {
		dir, name := path.Split(cleanPath(p))
		byDir[dir] = append(byDir[dir], name)
	}
	n := 0
	for dir, names := range byDir {
		num, ino, err := fs.lookup(dir)
		if err != nil || ino.mode != modeDir {
			continue
		}
		entries, _, err := fs.readDirents(num)
		if err != nil {
			continue
		}
		for _, name := range names {
			if slices.ContainsFunc(entries, func(e dirent) bool { return e.name == name && e.mode == modeFile }) {
				n++
			}
		}
	}
	return n
}

// Stat returns information about the path.
func (fs *FS) Stat(p string) (FileInfo, error) {
	_, ino, err := fs.lookup(p)
	if err != nil {
		return FileInfo{}, err
	}
	return FileInfo{Path: cleanPath(p), Size: ino.size, IsDir: ino.mode == modeDir}, nil
}

// MkdirAll creates the directory p and any missing parents.
func (fs *FS) MkdirAll(p string) error {
	cur := RootInode
	for rest := cleanPath(p)[1:]; rest != ""; {
		var part string
		part, rest, _ = strings.Cut(rest, "/")
		entries, ino, err := fs.readDirents(cur)
		if err != nil {
			return err
		}
		var next uint32
		found := false
		for _, e := range entries {
			if e.name == part {
				if e.mode != modeDir {
					return fmt.Errorf("fstree: %s: %q exists and is not a directory", p, part)
				}
				next = e.ino
				found = true
				break
			}
		}
		if !found {
			num, err := fs.allocInode()
			if err != nil {
				return err
			}
			if err := fs.writeInode(num, inode{mode: modeDir}); err != nil {
				return err
			}
			if err := fs.addEntry(cur, ino, entries, dirent{ino: num, mode: modeDir, name: part}); err != nil {
				return err
			}
			fs.dirs++
			next = num
		}
		cur = next
	}
	return nil
}

// WriteFile creates or replaces the file at p with data. Parent
// directories must exist (use MkdirAll).
func (fs *FS) WriteFile(p string, data []byte) error {
	dir, name := parent(p)
	if name == "" {
		return fmt.Errorf("fstree: cannot write to /")
	}
	dirNum, _, err := fs.lookup(dir)
	if err != nil {
		return fmt.Errorf("fstree: parent of %s: %w", p, err)
	}
	entries, dirIno, err := fs.readDirents(dirNum)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.name == name {
			if e.mode == modeDir {
				return fmt.Errorf("fstree: %s is a directory", p)
			}
			// Replace contents in place.
			ino, err := fs.readInode(e.ino)
			if err != nil {
				return err
			}
			if ino, err = fs.writeData(ino, data); err != nil {
				return err
			}
			return fs.writeInode(e.ino, ino)
		}
	}
	num, err := fs.allocInode()
	if err != nil {
		return err
	}
	ino, err := fs.writeData(inode{mode: modeFile}, data)
	if err != nil {
		return err
	}
	if err := fs.writeInode(num, ino); err != nil {
		return err
	}
	if err := fs.addEntry(dirNum, dirIno, entries, dirent{ino: num, mode: modeFile, name: name}); err != nil {
		return err
	}
	fs.files++
	return nil
}

// ReadFile returns the contents of the file at p.
func (fs *FS) ReadFile(p string) ([]byte, error) {
	_, ino, err := fs.lookup(p)
	if err != nil {
		return nil, err
	}
	if ino.mode != modeFile {
		return nil, fmt.Errorf("fstree: %s is a directory", p)
	}
	return fs.readData(ino)
}

// ReadDir lists the entries of the directory at p.
func (fs *FS) ReadDir(p string) ([]FileInfo, error) {
	num, ino, err := fs.lookup(p)
	if err != nil {
		return nil, err
	}
	if ino.mode != modeDir {
		return nil, fmt.Errorf("fstree: %s is not a directory", p)
	}
	entries, _, err := fs.readDirents(num)
	if err != nil {
		return nil, err
	}
	base := cleanPath(p)
	out := make([]FileInfo, 0, len(entries))
	for _, e := range entries {
		child, err := fs.readInode(e.ino)
		if err != nil {
			return nil, err
		}
		out = append(out, FileInfo{
			Path:  path.Join(base, e.name),
			Size:  child.size,
			IsDir: e.mode == modeDir,
		})
	}
	return out, nil
}

// Remove deletes the file or empty directory at p.
func (fs *FS) Remove(p string) error {
	dir, name := parent(p)
	if name == "" {
		return fmt.Errorf("fstree: cannot remove /")
	}
	dirNum, _, err := fs.lookup(dir)
	if err != nil {
		return err
	}
	entries, dirIno, err := fs.readDirents(dirNum)
	if err != nil {
		return err
	}
	for i, e := range entries {
		if e.name != name {
			continue
		}
		ino, err := fs.readInode(e.ino)
		if err != nil {
			return err
		}
		if ino.mode == modeDir {
			children, _, err := fs.readDirents(e.ino)
			if err != nil {
				return err
			}
			if len(children) > 0 {
				return fmt.Errorf("fstree: %s: directory not empty", p)
			}
			fs.dirs--
		} else {
			fs.files--
		}
		if err := fs.freeExtents(ino.extents()); err != nil {
			return err
		}
		if err := fs.writeInode(e.ino, inode{mode: modeFree}); err != nil {
			return err
		}
		return fs.removeEntry(dirNum, dirIno, entries, i)
	}
	return fmt.Errorf("fstree: %s: no such file or directory", p)
}

// errTooDeep refuses a descent past depth directories. A legal tree is
// never deeper than its directory count, so getting there means an entry
// points back at one of its ancestors — an image off the wire can say
// that, and following it would recurse until the stack ran out.
func (fs *FS) errTooDeep(p string, depth int) error {
	if depth < fs.dirs {
		return nil
	}
	return fmt.Errorf("fstree: %s: nested deeper than the filesystem's %d directories (an entry points at its ancestor)", p, fs.dirs)
}

// RemoveAll deletes p and, if it is a directory, everything below it.
// Removing a non-existent path is not an error.
func (fs *FS) RemoveAll(p string) error { return fs.removeAll(p, 0) }

func (fs *FS) removeAll(p string, depth int) error {
	_, ino, err := fs.lookup(p)
	if err != nil {
		return nil
	}
	if ino.mode == modeDir {
		if err := fs.errTooDeep(p, depth); err != nil {
			return err
		}
		infos, err := fs.ReadDir(p)
		if err != nil {
			return err
		}
		for _, fi := range infos {
			if err := fs.removeAll(fi.Path, depth+1); err != nil {
				return err
			}
		}
	}
	if cleanPath(p) == "/" {
		return nil // never remove the root itself
	}
	return fs.Remove(p)
}

// Walk visits every file and directory below root in deterministic
// (sorted) order, calling fn for each. Returning a non-nil error from fn
// aborts the walk. fn may read the filesystem but not change it: the walk
// holds each directory's listing while it visits the entries.
func (fs *FS) Walk(root string, fn func(info FileInfo) error) error {
	return fs.walk(root, 0, fn)
}

func (fs *FS) walk(root string, depth int, fn func(info FileInfo) error) error {
	num, ino, err := fs.lookup(root)
	if err != nil {
		return err
	}
	base := cleanPath(root)
	if ino.mode != modeDir {
		return fn(FileInfo{Path: base, Size: ino.size, IsDir: false})
	}
	if err := fs.errTooDeep(base, depth); err != nil {
		return err
	}
	entries, _, err := fs.readDirents(num)
	if err != nil {
		return err
	}
	for _, e := range entries {
		child := path.Join(base, e.name)
		ci, err := fs.readInode(e.ino)
		if err != nil {
			return err
		}
		if ci.mode == modeDir {
			if err := fn(FileInfo{Path: child, Size: ci.size, IsDir: true}); err != nil {
				return err
			}
			if err := fs.walk(child, depth+1, fn); err != nil {
				return err
			}
		} else {
			if err := fn(FileInfo{Path: child, Size: ci.size, IsDir: false}); err != nil {
				return err
			}
		}
	}
	return nil
}
