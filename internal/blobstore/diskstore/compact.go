// Online segment compaction. Released blobs leave their record bytes
// behind as garbage in sealed segments; the compactor scores each sealed
// segment by its dead-byte ratio, rewrites the surviving records of the
// worst offenders into the active segment as recMove records, switches the
// committed index to the new locations, and retires the evacuated files —
// all while puts, refs, releases, syncs and streamed reads keep running.
//
// The phase discipline mirrors the metadata WAL's compaction (and the
// log-cleaning shape of segmented-log systems generally): every phase
// boundary is a crash point the recovery path lands safely on.
//
//  1. Plan: pick sealed segments whose dead ratio crosses the gate.
//  2. Rewrite: for each surviving blob, append a recMove carrying the
//     blob's logged reference count and bytes. Each move is one short
//     critical section; mutations interleave freely between moves.
//  3. Switch: fsync the moves, then commit an index that references only
//     the new locations. A crash before the switch reopens from the old
//     index and replays whatever moves became durable.
//  4. Retire: drop the evacuated segments from the store and delete their
//     files — unless a streamed reader still holds a pin, in which case
//     the file lingers until the last reader closes (see segReader). A
//     crash before retirement leaves files the next Open's sweep
//     identifies as unreferenced and deletes.
//
// Orphan drift across these windows is one-directional: a crash can leave
// extra bytes on disk (unretired sources, replayed-but-superseded moves),
// never a live record pointing at missing bytes.
package diskstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"sort"

	"expelliarmus/internal/atomicfile"
	"expelliarmus/internal/blobstore"
	"expelliarmus/internal/chunkpool"
)

// candidateSegsLocked returns sealed segments whose dead-byte ratio is at
// least gate, ascending. The active segment is never a candidate — it is
// still taking appends, and moves land in it. Caller holds mu (shared
// suffices: the scoring inputs are the per-segment accounting maps).
func (s *Store) candidateSegsLocked(gate float64) []uint32 {
	var out []uint32
	for n, l := range s.lens {
		if n == s.active {
			continue
		}
		total := l - int64(len(segmentMagic))
		if total <= 0 {
			continue
		}
		dead := total - s.liveSeg[n]
		if dead <= 0 {
			continue
		}
		if float64(dead) >= gate*float64(total) {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// pendingCountLocked counts queued (not yet logged) releases of id. The
// blob's logged reference count is its in-memory count plus this. Caller
// holds mu.
func (s *Store) pendingCountLocked(id blobstore.ID) int {
	c := 0
	for _, p := range s.pending {
		if p == id {
			c++
		}
	}
	return c
}

// Compact flushes the store's state (queued releases, index) and then
// compacts every sealed segment whose dead-byte ratio is at or past the
// configured threshold — or past DefaultCompactDeadRatio when Options
// disabled the automatic trigger. It returns what was reclaimed; a
// concurrent compaction already in flight makes Compact a no-op.
func (s *Store) Compact() (blobstore.CompactStats, error) {
	if _, err := s.syncIndex(); err != nil {
		return blobstore.CompactStats{}, err
	}
	return s.compact()
}

// compact runs one plan→rewrite→switch→retire cycle. Callers must have
// flushed queued releases first (syncIndex) so the dead-ratio scoring sees
// them; Sync and Compact both do.
func (s *Store) compact() (st blobstore.CompactStats, err error) {
	s.mu.Lock()
	if s.failure != nil {
		s.mu.Unlock()
		return st, s.failure
	}
	if s.compacting {
		// Single-flight: the racing caller's cycle is already reclaiming.
		s.mu.Unlock()
		return st, nil
	}
	s.compacting = true
	gate := s.deadGate
	if gate < 0 {
		gate = DefaultCompactDeadRatio
	}
	cands := s.candidateSegsLocked(gate)
	candSet := make(map[uint32]bool, len(cands))
	for _, n := range cands {
		candSet[n] = true
	}
	// The survivors to rewrite: every blob — catalog or limbo — whose
	// bytes live in a candidate. Blobs put or resurrected after this point
	// land in the active segment and need no move.
	var jobs []blobstore.ID
	for id, e := range s.blobs {
		if candSet[e.seg] {
			jobs = append(jobs, id)
		}
	}
	for id, e := range s.limbo {
		if candSet[e.seg] {
			jobs = append(jobs, id)
		}
	}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.compacting = false
		s.mu.Unlock()
	}()
	if len(cands) == 0 {
		return st, nil
	}
	sort.Slice(jobs, func(i, j int) bool { return string(jobs[i][:]) < string(jobs[j][:]) })

	for _, id := range jobs {
		n, err := s.moveOne(id, candSet)
		if err != nil {
			return st, err
		}
		st.BlobsMoved += n
	}
	// The switch: fsync the moves, then commit an index referencing only
	// the new locations. In that order — the index watermark must never
	// extend past bytes that exist only in the page cache.
	if err := s.commitCatalog(); err != nil {
		return st, err
	}

	// Retire. The evacuated segments hold no referenced records; readers
	// opened before their blobs moved may still be streaming, so a pinned
	// file lingers (invisible to the catalog) until its last reader closes.
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, n := range cands {
		if s.liveSeg[n] != 0 {
			err := fmt.Errorf("diskstore: compaction: segment %d still holds %d live bytes after evacuation", n, s.liveSeg[n])
			s.fail(err)
			return st, err
		}
		f := s.segs[n]
		size := s.lens[n]
		path := filepath.Join(s.dir, segmentName(n))
		delete(s.segs, n)
		delete(s.lens, n)
		delete(s.syncedLen, n)
		delete(s.liveSeg, n)
		if s.readers[n].Load() == 0 {
			f.Close()
			if rerr := s.fsys.Remove(path); rerr != nil {
				s.fail(rerr)
				return st, rerr
			}
			delete(s.readers, n)
		} else {
			s.retiring[n] = &retiredSeg{f: f, path: path, size: size}
		}
		st.SegmentsCompacted++
		st.BytesReclaimed += size
		s.segsCompacted.Add(1)
		s.bytesReclaimed.Add(size)
	}
	return st, nil
}

// moveOne rewrites one blob's record into the active segment if it still
// lives in a candidate, returning how many records were appended (0 or 1).
// The source bytes are re-verified against the blob's content address on
// the way through — compaction must not immortalize silent disk damage —
// and the move record carries the blob's logged reference count, computed
// under the same lock that serializes every refcount mutation, so replay
// can apply it absolutely.
func (s *Store) moveOne(id blobstore.ID, cands map[uint32]bool) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failure != nil {
		return 0, s.failure
	}
	e, ok := s.blobs[id]
	if !ok {
		e, ok = s.limbo[id]
	}
	if !ok || !cands[e.seg] {
		// Fully released and flushed, or already relocated: nothing to move.
		return 0, nil
	}
	f := s.segs[e.seg]
	loggedRefs := e.refs + s.pendingCountLocked(id)
	if loggedRefs <= 0 {
		err := fmt.Errorf("diskstore: compaction: blob %s has logged refcount %d", id, loggedRefs)
		s.fail(err)
		return 0, err
	}
	var refs4 [recMoveRefsLen]byte
	binary.LittleEndian.PutUint32(refs4[:], uint32(loggedRefs))
	crc := crc32.Checksum([]byte{recMove}, crcTable)
	crc = crc32.Update(crc, crcTable, refs4[:])
	h := sha256.New()
	src := io.NewSectionReader(f, e.off, e.size)
	buf := chunkpool.Get()
	for read := int64(0); read < e.size; {
		n := int64(len(*buf))
		if e.size-read < n {
			n = e.size - read
		}
		if _, rerr := io.ReadFull(src, (*buf)[:n]); rerr != nil {
			chunkpool.Put(buf)
			err := fmt.Errorf("diskstore: compaction: segment %d: blob %s unreadable (%v): %w", e.seg, id, rerr, blobstore.ErrCorrupt)
			s.fail(err)
			return 0, err
		}
		crc = crc32.Update(crc, crcTable, (*buf)[:n])
		h.Write((*buf)[:n])
		read += n
	}
	chunkpool.Put(buf)
	var got blobstore.ID
	h.Sum(got[:0])
	if got != id {
		err := fmt.Errorf("diskstore: compaction: segment %d: blob %s content hash mismatch: %w", e.seg, id, blobstore.ErrCorrupt)
		s.fail(err)
		return 0, err
	}
	payload := io.MultiReader(bytes.NewReader(refs4[:]), io.NewSectionReader(f, e.off, e.size))
	seg, off, err := s.appendStreamLocked(recMove, crc, e.size+recMoveRefsLen, payload)
	if err != nil {
		s.fail(err)
		return 0, err
	}
	s.liveSeg[e.seg] -= e.footprint()
	e.seg, e.off, e.kind = seg, off+recMoveRefsLen, recMove
	s.liveSeg[seg] += e.footprint()
	s.dirty = true
	return 1, nil
}

// commitCatalog fsyncs every segment with unsynced appends and commits an
// index of the current catalog — including limbo entries, and with each
// blob's QUEUED releases folded back into its reference count. This is the
// one index commit that runs with releases possibly still queued (Sync
// always logs them first), and it must not make them durable: a reopen
// from this index sees the pre-release counts, resurrecting the released
// blobs exactly as the deferred-release contract promises.
func (s *Store) commitCatalog() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failure != nil {
		return s.failure
	}
	var st blobstore.SyncStats
	if err := s.syncSegmentsLocked(&st); err != nil {
		return err
	}
	pend := make(map[blobstore.ID]int, len(s.pending))
	for _, id := range s.pending {
		pend[id]++
	}
	entries := make([]indexEntry, 0, len(s.blobs)+len(s.limbo))
	for id, e := range s.blobs {
		entries = append(entries, indexEntry{id: id, seg: e.seg, off: e.off, size: e.size, refs: e.refs + pend[id], kind: e.kind})
	}
	for id, e := range s.limbo {
		entries = append(entries, indexEntry{id: id, seg: e.seg, off: e.off, size: e.size, refs: pend[id], kind: e.kind})
	}
	img := encodeIndex(s.active, s.lens[s.active], entries)
	if err := atomicfile.Write(s.fsys, filepath.Join(s.dir, "index"), img); err != nil {
		err = fmt.Errorf("diskstore: commit index: %w", err)
		s.fail(err)
		return err
	}
	// The committed image differs from the in-memory catalog exactly when
	// releases are still queued; they are what the next Sync must flush.
	s.dirty = len(s.pending) > 0
	return nil
}

// DiskStats returns the store's physical-footprint accounting.
func (s *Store) DiskStats() blobstore.DiskStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d := blobstore.DiskStats{
		DeadBytes:         s.deadBytesLocked(),
		Segments:          len(s.segs),
		SegmentsCompacted: s.segsCompacted.Load(),
		BytesReclaimed:    s.bytesReclaimed.Load(),
	}
	for _, l := range s.lens {
		d.DiskBytes += l
	}
	for _, r := range s.retiring {
		d.DiskBytes += r.size
	}
	return d
}
