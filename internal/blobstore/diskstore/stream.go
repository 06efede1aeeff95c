// Streaming blob IO for the disk store. Reads are served straight from
// segment offsets — a blob read is an io.SectionReader over the segment's
// shared pread handle, never a materialized buffer — and puts stream
// through a bounded spool that feeds the SHA-256 and record CRC
// incrementally, then append to the log under the same roll/magic/fsync
// discipline as every other record.
package diskstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"path/filepath"
	"strings"
	"sync/atomic"

	"expelliarmus/internal/blobstore"
	"expelliarmus/internal/chunkpool"
	"expelliarmus/internal/fsx"
)

// spillThreshold is the largest streamed put buffered entirely in memory.
// Beyond it the spool spills to a put-*.tmp file in the store directory,
// keeping peak put memory bounded by the chunk size regardless of blob
// size. The threshold exists because a put's payload cannot go straight to
// the segment log: the record header (CRC + length) precedes the payload
// and O_APPEND forbids back-patching, and dedup needs the full content
// hash before deciding whether to append at all.
const spillThreshold = 1 << 20

// spoolPattern names spill files; load deletes strays left by a crash.
const spoolPattern = "put-*.tmp"

// spool accumulates a streamed put outside the store lock, hashing as it
// fills. mem holds small payloads; file takes over once spillThreshold is
// crossed.
type spool struct {
	fsys fsx.FS
	dir  string
	mem  []byte
	file fsx.File
	size int64
	hash hash.Hash
	crc  uint32 // record CRC, seeded with the recPut kind byte
}

func newSpool(fsys fsx.FS, dir string) *spool {
	return &spool{
		fsys: fsys,
		dir:  dir,
		hash: sha256.New(),
		crc:  crc32.Checksum([]byte{recPut}, crcTable),
	}
}

// fill consumes r in pooled chunks, updating size, hash and crc.
func (sp *spool) fill(r io.Reader) error {
	buf := chunkpool.Get()
	defer chunkpool.Put(buf)
	for {
		n, rerr := r.Read(*buf)
		if n > 0 {
			chunk := (*buf)[:n]
			sp.hash.Write(chunk)
			sp.crc = crc32.Update(sp.crc, crcTable, chunk)
			if err := sp.store(chunk); err != nil {
				return err
			}
			sp.size += int64(n)
		}
		if rerr == io.EOF {
			return nil
		}
		if rerr != nil {
			return rerr
		}
	}
}

func (sp *spool) store(chunk []byte) error {
	if sp.file == nil {
		if int64(len(sp.mem))+int64(len(chunk)) <= spillThreshold {
			sp.mem = append(sp.mem, chunk...)
			return nil
		}
		f, err := sp.fsys.CreateTemp(sp.dir, spoolPattern)
		if err != nil {
			return err
		}
		sp.file = f
		if _, err := f.Write(sp.mem); err != nil {
			return err
		}
		sp.mem = nil
	}
	_, err := sp.file.Write(chunk)
	return err
}

// payload returns a reader over the spooled bytes, rewound to the start.
func (sp *spool) payload() (io.Reader, error) {
	if sp.file == nil {
		return bytes.NewReader(sp.mem), nil
	}
	if _, err := sp.file.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	return io.LimitReader(sp.file, sp.size), nil
}

// discard releases the spool's memory and deletes its spill file, if any.
func (sp *spool) discard() {
	if sp.file != nil {
		name := sp.file.Name()
		sp.file.Close()
		sp.fsys.Remove(name)
		sp.file = nil
	}
	sp.mem = nil
}

// removeStraySpools deletes put-*.tmp spill files left behind by a crashed
// streaming put. Only called from load, where the exclusive directory lock
// guarantees no live PutReader owns one.
func (s *Store) removeStraySpools() {
	des, err := s.fsys.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, de := range des {
		name := de.Name()
		if strings.HasPrefix(name, "put-") && strings.HasSuffix(name, ".tmp") {
			s.fsys.Remove(filepath.Join(s.dir, name))
		}
	}
}

// PutReader streams r into the store, hashing incrementally, and takes one
// reference on the resulting blob. The payload is spooled outside the
// store lock (in memory up to spillThreshold, then in a temp file), so a
// slow source never blocks other mutations, then appended to the segment
// log in chunked writes. If r fails mid-stream the store is unchanged. A
// store already in sticky failure refuses the put and returns the failure.
func (s *Store) PutReader(r io.Reader) (blobstore.ID, int64, bool, error) {
	// Fast-fail before consuming the source: a store in sticky failure
	// refuses the put anyway, so spooling a potentially multi-gigabyte
	// stream (and burning a temp file) first would be pure waste. The
	// failure is re-checked under the lock below — it can trip between
	// here and there.
	if err := s.Err(); err != nil {
		return blobstore.ID{}, 0, false, err
	}
	sp := newSpool(s.fsys, s.dir)
	defer sp.discard()
	if err := sp.fill(r); err != nil {
		return blobstore.ID{}, sp.size, false, fmt.Errorf("diskstore: put stream: %w", err)
	}
	if sp.size > math.MaxUint32 {
		return blobstore.ID{}, sp.size, false, fmt.Errorf("diskstore: put stream: %d bytes exceeds the record size limit", sp.size)
	}
	var id blobstore.ID
	sp.hash.Sum(id[:0])
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failure != nil {
		return id, sp.size, false, s.failure
	}
	if e, ok := s.blobs[id]; ok {
		if _, _, err := s.appendLocked(recAddRef, id[:]); err != nil {
			s.fail(err)
			return id, sp.size, false, err
		}
		e.refs++
		s.dirty = true
		return id, sp.size, false, nil
	}
	if e, ok := s.limbo[id]; ok {
		// The blob's bytes are still on disk and its final release is still
		// queued: cancel one queued release instead of logging anything. The
		// log's reference count at this position stays exactly right — the
		// cancelled release will never be appended, and the entry returns to
		// the catalog with the one reference that release would have dropped.
		// From the caller's view the content had been fully released, so
		// this reports stored (the catalog regained a blob), not a dedup hit.
		s.cancelPendingLocked(id)
		delete(s.limbo, id)
		e.refs = 1
		s.blobs[id] = e
		s.bytes += e.size
		s.dirty = true
		return id, sp.size, true, nil
	}
	payload, err := sp.payload()
	if err != nil {
		return id, sp.size, false, fmt.Errorf("diskstore: put stream: rewind spool: %w", err)
	}
	seg, off, err := s.appendStreamLocked(recPut, sp.crc, sp.size, payload)
	if err != nil {
		s.fail(err)
		return id, sp.size, false, err
	}
	e := &entry{seg: seg, off: off, size: sp.size, refs: 1, kind: recPut}
	s.blobs[id] = e
	s.bytes += sp.size
	s.liveSeg[seg] += e.footprint()
	s.dirty = true
	return id, sp.size, true, nil
}

// appendStreamLocked appends one record whose payload arrives as a stream
// with a precomputed CRC (seeded with the kind byte, updated over the
// payload — the same image recframe.Append produces). The header goes
// first, then the payload in pooled chunks, so no record-sized buffer ever
// exists; a crash mid-payload leaves a torn tail, exactly like a crash
// inside any other append, and recovery truncates it. Caller holds mu.
func (s *Store) appendStreamLocked(kind byte, crc uint32, size int64, payload io.Reader) (uint32, int64, error) {
	recSize := int64(recHeaderSize) + size
	f, err := s.prepareAppendLocked(recSize)
	if err != nil {
		return 0, 0, err
	}
	var hdr [recHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], crc)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(size))
	hdr[8] = kind
	if _, err := f.Write(hdr[:]); err != nil {
		return 0, 0, fmt.Errorf("diskstore: append to segment %d: %w", s.active, err)
	}
	n, err := chunkpool.Copy(f, payload)
	if err != nil {
		return 0, 0, fmt.Errorf("diskstore: append to segment %d: %w", s.active, err)
	}
	if n != size {
		return 0, 0, fmt.Errorf("diskstore: append to segment %d: payload stream yielded %d of %d bytes", s.active, n, size)
	}
	off := s.lens[s.active]
	s.lens[s.active] += recSize
	return s.active, off + recHeaderSize, nil
}

// segReader streams one blob record straight from its segment offset. It
// wraps an io.SectionReader over the segment's shared pread handle, so
// concurrent readers and appends never interfere and nothing is
// materialized. Sequential reads feed the record CRC incrementally; the
// moment the last payload byte passes through, the sum is checked against
// the stored record header and a mismatch turns the stream's end into an
// error instead of a clean EOF. ReadAt serves random access without
// touching the sequential cursor (spot-verified at open only).
//
// An open segReader pins its segment: compaction may evacuate the segment
// and drop it from the catalog, but the file handle stays open — and the
// file on disk — until the last pinned reader closes, so a reader taken
// before the blob moved streams the old record to EOF undisturbed.
type segReader struct {
	store  *Store
	rc     *atomic.Int64
	closed bool
	sr     *io.SectionReader
	seg    uint32
	size   int64
	pos    int64
	crc    uint32
	want   uint32
	err    error // sticky checksum/short-read failure
}

func (r *segReader) Read(p []byte) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	n, err := r.sr.Read(p)
	if n > 0 {
		r.crc = crc32.Update(r.crc, crcTable, p[:n])
		r.pos += int64(n)
		if r.pos == r.size && r.crc != r.want {
			r.err = fmt.Errorf("diskstore: segment %d: blob record checksum mismatch: %w", r.seg, errCorrupt)
			return n, r.err
		}
	}
	if err == io.EOF && r.pos < r.size {
		// The segment lost bytes after the fact; zero-padded or truncated
		// content must never be served as blob data.
		r.err = fmt.Errorf("diskstore: segment %d short read: %w", r.seg, io.ErrUnexpectedEOF)
		return n, r.err
	}
	return n, err
}

func (r *segReader) ReadAt(p []byte, off int64) (int, error) {
	return r.sr.ReadAt(p, off)
}

// Close releases the reader's pin on its segment. If the segment was
// evacuated by compaction while this reader held it open, the last pin to
// drop deletes the file. Closing twice is safe.
func (r *segReader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.store.unpin(r.seg, r.rc)
	return nil
}

// unpin drops one reader pin on seg and, when the segment is retiring and
// this was the last pin, finishes the retirement: close the handle, delete
// the file. New pins are impossible by then — a retiring segment has no
// catalog entries pointing at it and is gone from segs — so the count can
// only stay zero.
func (s *Store) unpin(seg uint32, rc *atomic.Int64) {
	if rc.Add(-1) != 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ret, ok := s.retiring[seg]
	if !ok || rc.Load() != 0 {
		return
	}
	ret.f.Close()
	s.fsys.Remove(ret.path)
	delete(s.retiring, seg)
	delete(s.readers, seg)
}

// Open returns a streaming reader over the blob's payload, served directly
// from its segment offset. The record header is spot-verified here (kind
// and length must match the catalog; the stored CRC seeds the sequential
// verification in segReader), but the payload itself is not read — opening
// a gigabyte blob costs one header-sized pread. A header that cannot be
// read or no longer matches the catalog is real on-disk damage, reported
// as a corruption error (never as not-found) and tripping the store's
// sticky failure: damaged bytes are never served. The reader pins its
// segment against compaction's retirement (see segReader), so it stays
// readable after the blob is released or moved — until its own Close or
// the store's. It also implements io.ReaderAt.
func (s *Store) Open(id blobstore.ID) (io.ReadCloser, int64, error) {
	s.mu.RLock()
	ep, ok := s.blobs[id]
	var e entry
	var f fsx.File
	var rc *atomic.Int64
	if ok {
		e = *ep
		f, ok = s.segs[e.seg]
		if ok {
			// Pin while still under the lock: the moment it drops, a racing
			// compaction could retire the segment and close the handle.
			rc = s.readers[e.seg]
			rc.Add(1)
		}
	}
	s.mu.RUnlock()
	if !ok {
		return nil, 0, fmt.Errorf("diskstore: open %s: %w", id, blobstore.ErrNotFound)
	}
	// A move record's payload carries a reference-count prefix between the
	// framing header and the blob bytes; the header pread grabs both, and
	// the prefix joins the CRC seed (the stored sum covers kind | refs |
	// blob for moves, kind | blob for puts).
	prefix := 0
	if e.kind == recMove {
		prefix = recMoveRefsLen
	}
	hdr := make([]byte, recHeaderSize+prefix)
	if _, err := f.ReadAt(hdr, e.off-int64(len(hdr))); err != nil {
		s.unpin(e.seg, rc)
		cerr := fmt.Errorf("diskstore: segment %d: blob %s header unreadable (%v): %w", e.seg, id, err, blobstore.ErrCorrupt)
		s.failSticky(cerr)
		return nil, 0, cerr
	}
	if hdr[8] != e.kind || int64(binary.LittleEndian.Uint32(hdr[4:8])) != e.size+int64(prefix) {
		s.unpin(e.seg, rc)
		cerr := fmt.Errorf("diskstore: segment %d: blob %s header mismatches catalog (kind %d, length %d, want %d): %w",
			e.seg, id, hdr[8], binary.LittleEndian.Uint32(hdr[4:8]), e.size+int64(prefix), blobstore.ErrCorrupt)
		s.failSticky(cerr)
		return nil, 0, cerr
	}
	crc := crc32.Checksum(hdr[8:9], crcTable)
	crc = crc32.Update(crc, crcTable, hdr[recHeaderSize:])
	r := &segReader{
		store: s,
		rc:    rc,
		sr:    io.NewSectionReader(f, e.off, e.size),
		seg:   e.seg,
		size:  e.size,
		crc:   crc,
		want:  binary.LittleEndian.Uint32(hdr[0:4]),
	}
	return r, e.size, nil
}

// cancelPendingLocked removes the most recent queued release of id. Caller
// holds mu and guarantees at least one is queued (id is in limbo).
func (s *Store) cancelPendingLocked(id blobstore.ID) {
	for i := len(s.pending) - 1; i >= 0; i-- {
		if s.pending[i] == id {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			return
		}
	}
}
