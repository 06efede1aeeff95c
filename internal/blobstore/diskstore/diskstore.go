// Package diskstore implements the on-disk blobstore.Backend: a
// content-addressed, reference-counted blob store whose state lives in
// append-only segment files plus an atomically committed index, so a
// repository can outgrow RAM and a save writes only what changed.
//
// Layout of a store directory:
//
//	seg-00000001.log   append-only operation log (CRC-framed records)
//	seg-00000002.log   ... rolled when a segment reaches MaxSegmentBytes
//	index              committed catalog: blob locations + refcounts +
//	                   durability watermark (replaced via temp + rename)
//	index.tmp          transient; leftover only after a crash mid-commit
//
// Every mutation is logged to the active segment, so the log is a
// complete operation history and replaying it reconstructs exact
// reference counts — but puts and releases are logged at different times,
// and deliberately so. A put appends eagerly (a put record for new
// content, an addref record for a dedup hit): losing one to a crash can
// only lose data, so it must reach the log before any metadata that
// references it is committed (SyncData is the barrier a caller uses for
// exactly that). Releases apply to the in-memory catalog
// immediately but are queued and appended only during Sync, after the
// caller has had the chance to commit its metadata: a release that
// replays on reopen deletes a blob, and if it became durable before the
// metadata that stopped referencing the blob, a crash would leave
// committed records pointing at nothing. Deferring releases flips every
// crash outcome into the safe direction — at worst a released blob is
// resurrected as an orphan, never a live record dangling.
//
// Sync makes the store durable incrementally: it appends the queued
// releases, fsyncs only segments with bytes appended since the previous
// sync, then commits a fresh index whose watermark records how far the
// durable log extends. Open loads the index and replays any log records
// at or beyond the watermark; a torn or checksum-failing record at the
// tail of the newest segment is truncated away and reported (a crash
// mid-append), while damage anywhere else — including an index that
// references a segment file missing from the directory — is refused as
// real corruption. A missing or unreadable index is not fatal either:
// segments are never rewritten, so the full log replays into the same
// state.
//
// Concurrency: reads (Open, Size, Refs, IDs, TotalBytes) take a shared
// lock and may run in parallel; mutations serialise on one
// exclusive lock because they all append to the single active segment —
// lock striping would buy nothing while the log tail is the bottleneck.
// The shard key the in-memory store stripes on (leading hash byte) is
// instead the grouping key of the index file, keeping the two backends'
// layouts aligned.
package diskstore

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"expelliarmus/internal/atomicfile"
	"expelliarmus/internal/blobstore"
	"expelliarmus/internal/fsx"
	"expelliarmus/internal/recframe"
)

// DefaultMaxSegmentBytes is the roll threshold when Options leave it zero.
const DefaultMaxSegmentBytes = 8 << 20

// DefaultCompactDeadRatio is the dead-byte fraction at which a sealed
// segment becomes a compaction candidate when Options leave the ratio zero.
const DefaultCompactDeadRatio = 0.5

// Options configure a disk store.
type Options struct {
	// MaxSegmentBytes rolls the active segment to a new file once it
	// reaches this size (a single oversized record may still exceed it).
	// Zero means DefaultMaxSegmentBytes. Small values are useful in tests
	// to force multi-segment layouts.
	MaxSegmentBytes int64
	// CompactDeadRatio is the dead-byte fraction (dead bytes over total
	// record bytes) at which a sealed segment is scored a compaction
	// candidate. Sync compacts candidates automatically after committing
	// its index; Compact does the same on demand. Zero means
	// DefaultCompactDeadRatio; a negative value disables the automatic
	// trigger (Compact still works, using the default ratio).
	CompactDeadRatio float64
	// FS is the file system the store lives on; nil means the real one.
	// Tests pass an fsx.Fault to crash the store or fail its I/O.
	FS fsx.FS
}

// RecoveryReport describes what Open had to do beyond loading the index.
type RecoveryReport struct {
	// ReplayedRecords counts log records applied on top of the index —
	// operations that happened after the last completed Sync.
	ReplayedRecords int
	// IndexRebuilt reports that an index file existed but was unreadable
	// (bad magic, checksum, or structure), so the state was rebuilt by
	// replaying the full segment log.
	IndexRebuilt bool
	// TornSegment is the segment whose tail was truncated (0 = none).
	TornSegment uint32
	// TornOffset is the file offset the torn segment was truncated to.
	TornOffset int64
	// DroppedBytes is how many trailing bytes the truncation discarded.
	DroppedBytes int64
	// DroppedReleases counts release records found at the log tail without
	// a following commit marker — the remains of a Sync that died mid-batch
	// — which recovery drops and truncates away so the batch applies
	// all-or-nothing (the affected blobs resurrect as orphans, the safe
	// direction).
	DroppedReleases int
	// SegmentsSwept counts segment files deleted at open because the
	// committed index no longer references them and they lie wholly below
	// the durability watermark — the remains of a compaction that crashed
	// after switching the index but before retiring its source segments.
	SegmentsSwept int
}

// Torn reports whether recovery found (and removed) a torn log tail.
func (r RecoveryReport) Torn() bool { return r.TornSegment != 0 }

type entry struct {
	seg  uint32
	off  int64 // blob-byte offset within the segment file
	size int64
	refs int
	kind byte // recPut or recMove: how the record framing around off reads
}

// footprint is the record's full on-disk size: header, the move prefix if
// any, and the blob bytes. Per-segment live-byte accounting sums these.
func (e *entry) footprint() int64 {
	n := int64(recHeaderSize) + e.size
	if e.kind == recMove {
		n += recMoveRefsLen
	}
	return n
}

// Store is the disk-backed blob store. Construct with Open; the zero value
// is not usable. A Store is safe for concurrent use.
type Store struct {
	fsys     fsx.FS
	dir      string
	maxSeg   int64
	deadGate float64      // effective CompactDeadRatio (< 0: auto-compaction off)
	unlock   func() error // releases the exclusive directory lock

	mu    sync.RWMutex
	blobs map[blobstore.ID]*entry
	// limbo holds entries whose last reference was released but whose
	// release records are still queued in pending. They are invisible to
	// every read path (the blob is gone from the catalog's point of view)
	// but their bytes are still live on disk: an index committed before
	// the queued releases flush — a compaction switch does exactly that —
	// must re-encode them (with their queued releases folded back into the
	// reference count), or reopening from that index would make the
	// releases durable before the caller's metadata commit. Compaction
	// also moves them like any live record. A put of the same content
	// resurrects the entry instead of cancelling it destructively.
	limbo map[blobstore.ID]*entry
	bytes int64 // live payload bytes (garbage in released records excluded)
	dirty bool  // catalog changed since the last committed index

	segs      map[uint32]fsx.File // open handles; active one is also the writer
	lens      map[uint32]int64    // current byte length per segment
	syncedLen map[uint32]int64    // durable (fsynced + index-covered) length per segment
	liveSeg   map[uint32]int64    // live record footprint bytes per segment (blobs + limbo)
	readers   map[uint32]*atomic.Int64
	retiring  map[uint32]*retiredSeg // evacuated segments waiting for reader drain
	active    uint32                 // newest segment number (0 = none yet)
	pending   []blobstore.ID         // releases applied in memory, logged at next Sync

	compacting bool // single-flight guard for the copy phase

	failure  error // sticky first I/O error; mutations refuse once set
	recovery RecoveryReport

	// Replay-only state: release records buffered until their commit
	// marker (see recCommit), with positions so an unmarked tail can be
	// truncated away.
	relBuf []bufferedRelease

	segsCompacted  atomic.Int64 // cumulative segments retired since Open
	bytesReclaimed atomic.Int64 // cumulative segment-file bytes freed since Open
}

// retiredSeg is a segment whose records were all rewritten elsewhere and
// whose index references are gone, but which still has open readers
// streaming from it. The last reader's Close deletes the file.
type retiredSeg struct {
	f    fsx.File
	path string
	size int64
}

// bufferedRelease is a replayed release record waiting for its commit
// marker, with enough position to truncate an unmarked tail.
type bufferedRelease struct {
	id  blobstore.ID
	seg uint32
	off int64
}

// Store implements the backend contract.
var _ blobstore.Backend = (*Store)(nil)

// Open creates or reopens a store rooted at dir, running crash recovery:
// the committed index is loaded, the log tail beyond its watermark is
// replayed, and a torn final record is truncated away. The recovery
// outcome is readable via Recovery. Open takes an exclusive lock on the
// directory and fails if another store instance — in this process or any
// other — already holds it: two stores appending to the same segments
// would each track offsets the other invalidates, and persist a corrupt
// index.
func Open(dir string, opts Options) (*Store, error) {
	fsys := fsx.Or(opts.FS)
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("diskstore: open %s: %w", dir, err)
	}
	unlock, err := fsys.Lock(dir)
	if err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	s := &Store{
		fsys:      fsys,
		dir:       dir,
		maxSeg:    opts.MaxSegmentBytes,
		deadGate:  opts.CompactDeadRatio,
		unlock:    unlock,
		blobs:     make(map[blobstore.ID]*entry),
		limbo:     make(map[blobstore.ID]*entry),
		segs:      make(map[uint32]fsx.File),
		lens:      make(map[uint32]int64),
		syncedLen: make(map[uint32]int64),
		liveSeg:   make(map[uint32]int64),
		readers:   make(map[uint32]*atomic.Int64),
		retiring:  make(map[uint32]*retiredSeg),
	}
	if s.maxSeg <= 0 {
		s.maxSeg = DefaultMaxSegmentBytes
	}
	if s.deadGate == 0 {
		s.deadGate = DefaultCompactDeadRatio
	}
	if err := s.load(); err != nil {
		s.closeFiles(false)
		return nil, err
	}
	return s, nil
}

// Recovery returns what Open had to recover.
func (s *Store) Recovery() RecoveryReport { return s.recovery }

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// load reads the index (if usable), opens all segments and replays the
// log from the index watermark (or from the beginning when rebuilding).
func (s *Store) load() error {
	// Spill files from streaming puts interrupted by a crash are dead
	// weight: the exclusive directory lock guarantees no live PutReader
	// owns one.
	s.removeStraySpools()
	watermarkSeg, watermarkOff, entries, idxErr := s.loadIndex()
	segNums, err := s.listSegments()
	if err != nil {
		return err
	}
	if idxErr != nil {
		// Unreadable index: distrust it entirely and rebuild from the log.
		s.recovery.IndexRebuilt = true
		watermarkSeg, watermarkOff, entries = 0, 0, nil
	}
	if s.recovery.IndexRebuilt || watermarkSeg == 0 {
		// Full replay reconstructs reference counts from the complete
		// operation history — which only exists while every segment since
		// the first is still present. Once compaction has retired or swept
		// a segment, the addref/release history of blobs that were never
		// moved is gone with it, and replaying the remainder would invent
		// wrong counts. Refuse loudly instead.
		for i, n := range segNums {
			if n != uint32(i)+1 {
				return fmt.Errorf("diskstore: cannot rebuild the catalog by replay: segment log starts at %d (compaction has retired earlier segments), and the index is unusable", segNums[0])
			}
		}
	}
	for _, e := range entries {
		ec := e
		s.blobs[e.id] = &entry{seg: ec.seg, off: ec.off, size: ec.size, refs: ec.refs, kind: ec.kind}
		s.bytes += e.size
		s.liveSeg[ec.seg] += s.blobs[e.id].footprint()
	}
	for _, n := range segNums {
		// O_APPEND so later appends land at the end regardless of how far
		// recovery read; reads always go through ReadAt (pread).
		f, err := s.fsys.OpenFile(filepath.Join(s.dir, segmentName(n)), os.O_RDWR|os.O_APPEND)
		if err != nil {
			return fmt.Errorf("diskstore: open segment %d: %w", n, err)
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return err
		}
		s.segs[n] = f
		s.lens[n] = fi.Size()
		s.readers[n] = &atomic.Int64{}
		if n > s.active {
			s.active = n
		}
	}
	// Every segment the index vouches for must actually be present: the
	// committed catalog pointing at a missing file is real corruption (a
	// deleted or lost segment), not a crash artifact, and silently serving
	// "not found" for its blobs would turn durable data into absent data.
	for _, e := range entries {
		if _, ok := s.segs[e.seg]; !ok {
			return fmt.Errorf("diskstore: index references missing segment %d (blob %s)", e.seg, e.id)
		}
	}
	// The watermark segment itself must be present and at least as long as
	// the index claims — even when no entry points into it (it may hold
	// only addref/release records). A shorter or missing file means
	// durably-synced log records are gone, and accepting it would let new
	// appends land below the stale watermark where a later recovery never
	// replays them.
	if watermarkSeg != 0 {
		if _, ok := s.segs[watermarkSeg]; !ok {
			return fmt.Errorf("diskstore: index watermark references missing segment %d", watermarkSeg)
		}
		if s.lens[watermarkSeg] < watermarkOff {
			return fmt.Errorf("diskstore: segment %d is %d bytes, shorter than the synced watermark %d",
				watermarkSeg, s.lens[watermarkSeg], watermarkOff)
		}
	}
	// The durable watermark: everything the index vouches for was fsynced
	// before the index committed. Replayed bytes beyond it may only be in
	// the page cache, so they stay below the watermark until the next Sync.
	for _, n := range segNums {
		switch {
		case n < watermarkSeg:
			s.syncedLen[n] = s.lens[n]
		case n == watermarkSeg:
			s.syncedLen[n] = watermarkOff
		}
	}
	// Sweep segments the committed index no longer references: wholly
	// below the watermark (their records never replay) with zero live
	// entries, they are the source files of a compaction that crashed
	// after the index switch but before retiring them — or sealed segments
	// whose every blob was released and flushed. Either way they are dead
	// weight the crashed retire (or this open) reclaims. Only a trusted
	// index may authorize this: after a rebuild nothing vouches that the
	// files are garbage.
	if !s.recovery.IndexRebuilt {
		for _, n := range segNums {
			if n >= watermarkSeg || s.liveSeg[n] != 0 || s.lens[n] <= int64(len(segmentMagic)) {
				continue
			}
			s.segs[n].Close()
			if err := s.fsys.Remove(filepath.Join(s.dir, segmentName(n))); err != nil {
				return fmt.Errorf("diskstore: sweep unreferenced segment %d: %w", n, err)
			}
			delete(s.segs, n)
			delete(s.lens, n)
			delete(s.syncedLen, n)
			delete(s.readers, n)
			s.recovery.SegmentsSwept++
		}
	}
	for i, n := range segNums {
		if n < watermarkSeg {
			continue
		}
		start := int64(len(segmentMagic))
		if n == watermarkSeg && watermarkOff > start {
			start = watermarkOff
		}
		if err := s.replaySegment(n, start, i == len(segNums)-1); err != nil {
			return err
		}
	}
	// Release records still buffered when the log ends never got their
	// commit marker: the Sync writing them died mid-batch. Drop them — the
	// blobs resurrect as orphans, the safe direction — and truncate them
	// off the log, because leaving half a batch in place would let a
	// marker appended by a future Sync commit it.
	if err := s.dropUnmarkedReleases(); err != nil {
		return err
	}
	// Replayed records (and a rebuilt index) are state the on-disk index
	// does not yet reflect; the next Sync must commit it.
	s.dirty = s.recovery.ReplayedRecords > 0 || s.recovery.IndexRebuilt ||
		s.recovery.DroppedReleases > 0 || s.recovery.SegmentsSwept > 0
	return nil
}

// dropUnmarkedReleases truncates the trailing run of release records that
// never received a commit marker. The records are whole and CRC-valid, but
// they are the tail of a Sync that died between appending its batch and
// appending the marker; a crashed batch must apply all-or-nothing.
func (s *Store) dropUnmarkedReleases() error {
	if len(s.relBuf) == 0 {
		return nil
	}
	// The run is contiguous at the log tail, possibly spanning a roll:
	// truncate each affected segment back to the run's first record in it.
	cut := map[uint32]int64{}
	for _, r := range s.relBuf {
		if off, ok := cut[r.seg]; !ok || r.off < off {
			cut[r.seg] = r.off
		}
	}
	for n, keep := range cut {
		if err := s.segs[n].Truncate(keep); err != nil {
			return fmt.Errorf("diskstore: truncate unmarked release batch in segment %d: %w", n, err)
		}
		s.lens[n] = keep
		if s.syncedLen[n] > keep {
			s.syncedLen[n] = keep
		}
	}
	s.recovery.DroppedReleases = len(s.relBuf)
	s.relBuf = nil
	return nil
}

// loadIndex parses dir/index. A missing file is a fresh (or never-synced)
// store, reported as zero values with nil error; an unreadable file is
// reported as an error so load falls back to full replay.
func (s *Store) loadIndex() (uint32, int64, []indexEntry, error) {
	img, err := s.fsys.ReadFile(filepath.Join(s.dir, "index"))
	if errors.Is(err, fs.ErrNotExist) {
		return 0, 0, nil, nil
	}
	if err != nil {
		return 0, 0, nil, err
	}
	return parseIndex(img)
}

// listSegments returns existing segment numbers in ascending order.
func (s *Store) listSegments() ([]uint32, error) {
	des, err := s.fsys.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var nums []uint32
	for _, de := range des {
		var n uint32
		// Sscanf ignores trailing characters, so require the round trip
		// through segmentName to match exactly — a stray seg-00000001.log.bak
		// must not make segment 1 replay twice.
		if _, err := fmt.Sscanf(de.Name(), "seg-%08d.log", &n); err == nil && n > 0 && de.Name() == segmentName(n) {
			nums = append(nums, n)
		}
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
	return nums, nil
}

// replaySegment applies log records of segment n starting at offset start.
// A torn or corrupt record is tolerated only at the tail of the last
// segment — the signature of a crash mid-append — where the file is
// truncated to the last whole record; anywhere else it is corruption.
func (s *Store) replaySegment(n uint32, start int64, last bool) error {
	f := s.segs[n]
	size := s.lens[n]
	if size < int64(len(segmentMagic)) {
		// The file died before its magic finished. Only acceptable as the
		// very tail of the log.
		if !last {
			return fmt.Errorf("diskstore: segment %d shorter than its header", n)
		}
		return s.truncateSegment(n, 0, size)
	}
	magic := make([]byte, len(segmentMagic))
	if _, err := f.ReadAt(magic, 0); err != nil {
		return err
	}
	if string(magic) != string(segmentMagic) {
		return fmt.Errorf("diskstore: segment %d has bad magic", n)
	}
	if start >= size {
		return nil
	}
	buf := make([]byte, size-start)
	if _, err := f.ReadAt(buf, start); err != nil {
		return fmt.Errorf("diskstore: read segment %d: %w", n, err)
	}
	off := start
	for len(buf) > 0 {
		kind, payload, recSize, err := parseRecord(buf)
		if err != nil {
			if !last {
				return fmt.Errorf("diskstore: segment %d offset %d: %w", n, off, err)
			}
			// A genuine torn append leaves only garbage after the failed
			// record — the crash stopped the log there. A whole, valid,
			// CRC-passing record beyond the failure therefore proves the
			// damage is real corruption of committed data, which must be
			// refused, not silently truncated away with everything after it.
			if tail := recframe.NextValid(buf[1:]); tail >= 0 {
				return fmt.Errorf("diskstore: segment %d offset %d: %w followed by a valid record at offset %d — refusing to truncate committed data",
					n, off, err, off+1+int64(tail))
			}
			return s.truncateSegment(n, off, size-off)
		}
		if err := s.apply(kind, payload, n, off); err != nil {
			return err
		}
		// Releases count when their batch commits (applyBufferedReleases);
		// markers are batch framing, not operations.
		if kind != recRelease && kind != recCommit {
			s.recovery.ReplayedRecords++
		}
		buf = buf[recSize:]
		off += int64(recSize)
	}
	return nil
}

// truncateSegment drops the torn tail of segment n and records it.
func (s *Store) truncateSegment(n uint32, keep, dropped int64) error {
	if err := s.segs[n].Truncate(keep); err != nil {
		return fmt.Errorf("diskstore: truncate torn segment %d: %w", n, err)
	}
	s.lens[n] = keep
	if s.syncedLen[n] > keep {
		s.syncedLen[n] = keep
	}
	s.recovery.TornSegment = n
	s.recovery.TornOffset = keep
	s.recovery.DroppedBytes = dropped
	return nil
}

// apply replays one log record into the in-memory catalog. Releases are
// buffered until their commit marker so a Sync batch replays atomically; a
// non-release record while releases are buffered can only come from a log
// written before commit markers existed, and applies the buffer first (the
// log demonstrably continued past the batch, so it was complete).
func (s *Store) apply(kind byte, payload []byte, seg uint32, recOff int64) error {
	if kind != recRelease && kind != recCommit && len(s.relBuf) > 0 {
		if err := s.applyBufferedReleases(); err != nil {
			return err
		}
	}
	switch kind {
	case recPut:
		id := sha256.Sum256(payload)
		if e, ok := s.blobs[id]; ok {
			e.refs++
			return nil
		}
		e := &entry{seg: seg, off: recOff + recHeaderSize, size: int64(len(payload)), refs: 1, kind: recPut}
		s.blobs[id] = e
		s.bytes += e.size
		s.liveSeg[seg] += e.footprint()
		return nil
	case recAddRef:
		id, err := refPayload(payload)
		if err != nil {
			return err
		}
		e, ok := s.blobs[id]
		if !ok {
			return fmt.Errorf("diskstore: replayed addref for unknown blob %s", id)
		}
		e.refs++
		return nil
	case recRelease:
		id, err := refPayload(payload)
		if err != nil {
			return err
		}
		s.relBuf = append(s.relBuf, bufferedRelease{id: id, seg: seg, off: recOff})
		return nil
	case recCommit:
		if len(payload) != 0 {
			return fmt.Errorf("%w: commit marker carries %d payload bytes", errCorrupt, len(payload))
		}
		return s.applyBufferedReleases()
	case recMove:
		if len(payload) < recMoveRefsLen {
			return fmt.Errorf("%w: move record payload is %d bytes, shorter than its refs prefix", errCorrupt, len(payload))
		}
		refs := int(binary.LittleEndian.Uint32(payload[:recMoveRefsLen]))
		if refs == 0 {
			return fmt.Errorf("%w: move record with zero refs", errCorrupt)
		}
		blob := payload[recMoveRefsLen:]
		id := sha256.Sum256(blob)
		e, ok := s.blobs[id]
		if !ok {
			// Full replay after the source segment's put record was lost to
			// a tear, or a moved blob whose index entry predates this move:
			// the move carries everything needed to (re)create the entry.
			e = &entry{}
			s.blobs[id] = e
			s.bytes += int64(len(blob))
		} else {
			s.liveSeg[e.seg] -= e.footprint()
		}
		// Absolute, not a delta: at append time the count was the blob's
		// logged reference count at exactly this log position, and once the
		// source segment retires, the history behind it is unreplayable.
		e.seg, e.off, e.size, e.refs, e.kind = seg, recOff+recHeaderSize+recMoveRefsLen, int64(len(blob)), refs, recMove
		s.liveSeg[seg] += e.footprint()
		return nil
	default:
		return fmt.Errorf("diskstore: unknown record kind %d", kind)
	}
}

// applyBufferedReleases applies a complete, marker-committed release batch.
func (s *Store) applyBufferedReleases() error {
	for _, r := range s.relBuf {
		e, ok := s.blobs[r.id]
		if !ok {
			return fmt.Errorf("diskstore: replayed release for unknown blob %s", r.id)
		}
		e.refs--
		if e.refs == 0 {
			s.bytes -= e.size
			s.liveSeg[e.seg] -= e.footprint()
			delete(s.blobs, r.id)
		}
		s.recovery.ReplayedRecords++
	}
	s.relBuf = nil
	return nil
}

// fail records the first I/O error; the store refuses further mutations
// and surfaces the error from Sync and Close. Caller holds mu exclusively.
func (s *Store) fail(err error) {
	if s.failure == nil {
		s.failure = err
	}
}

// failSticky is fail for paths that do not already hold the exclusive
// lock (the read paths, which detect on-disk damage).
func (s *Store) failSticky(err error) {
	s.mu.Lock()
	s.fail(err)
	s.mu.Unlock()
}

// prepareAppendLocked rolls the active segment when the next record would
// overflow it and restores a truncated-away magic, returning the file the
// record must land in. It is the one place the roll/magic discipline
// lives, shared by the buffered and streaming append paths. Caller holds mu.
func (s *Store) prepareAppendLocked(recSize int64) (fsx.File, error) {
	if s.active == 0 || (s.lens[s.active] > int64(len(segmentMagic)) && s.lens[s.active]+recSize > s.maxSeg) {
		if err := s.rollLocked(); err != nil {
			return nil, err
		}
	}
	f := s.segs[s.active]
	if s.lens[s.active] < int64(len(segmentMagic)) {
		// Recovery truncated this segment to nothing (torn before its
		// header finished); restore the magic before the first record.
		if _, err := f.Write(segmentMagic); err != nil {
			return nil, fmt.Errorf("diskstore: rewrite segment %d magic: %w", s.active, err)
		}
		s.lens[s.active] = int64(len(segmentMagic))
	}
	return f, nil
}

// appendLocked frames and appends one small record (refs, releases) in a
// single write, rolling the active segment when full, and returns the
// payload's file offset. Blob payloads go through appendStreamLocked
// instead. Caller holds mu.
func (s *Store) appendLocked(kind byte, payload []byte) (seg uint32, payloadOff int64, err error) {
	recSize := int64(recHeaderSize + len(payload))
	f, err := s.prepareAppendLocked(recSize)
	if err != nil {
		return 0, 0, err
	}
	buf := make([]byte, 0, recSize)
	buf = appendRecord(buf, kind, payload)
	if _, err := f.Write(buf); err != nil {
		return 0, 0, fmt.Errorf("diskstore: append to segment %d: %w", s.active, err)
	}
	off := s.lens[s.active]
	s.lens[s.active] += recSize
	return s.active, off + recHeaderSize, nil
}

// rollLocked opens the next segment file and writes its magic. Two
// ordering rules make rolls crash-safe. The outgoing segment is fsynced
// before the new one takes appends: recovery tolerates a torn tail only
// in the LAST segment (anywhere else is real corruption), so a segment
// must be complete on disk before any record lands after it. And the new
// file's directory entry is fsynced immediately: a later Sync commits an
// index referencing this segment by number, and that index must never
// become durable while the file's very existence is still only in the
// page cache.
func (s *Store) rollLocked() error {
	if s.active != 0 {
		if err := s.segs[s.active].Sync(); err != nil {
			return fmt.Errorf("diskstore: sync segment %d before roll: %w", s.active, err)
		}
	}
	n := s.active + 1
	f, err := s.fsys.OpenFile(filepath.Join(s.dir, segmentName(n)), os.O_RDWR|os.O_CREATE|os.O_EXCL|os.O_APPEND)
	if err != nil {
		return fmt.Errorf("diskstore: create segment %d: %w", n, err)
	}
	if _, err := f.Write(segmentMagic); err != nil {
		f.Close()
		return fmt.Errorf("diskstore: write segment %d magic: %w", n, err)
	}
	if err := s.fsys.SyncDir(s.dir); err != nil {
		f.Close()
		return fmt.Errorf("diskstore: persist segment %d directory entry: %w", n, err)
	}
	s.segs[n] = f
	s.lens[n] = int64(len(segmentMagic))
	s.readers[n] = &atomic.Int64{}
	s.active = n
	return nil
}

// Size returns the length of the blob without reading it.
func (s *Store) Size(id blobstore.ID) (int64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.blobs[id]
	if !ok {
		return 0, false
	}
	return e.size, true
}

// Refs returns the current reference count, or zero if absent.
func (s *Store) Refs(id blobstore.ID) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if e, ok := s.blobs[id]; ok {
		return e.refs
	}
	return 0
}

// Release drops one reference; at zero the blob leaves the catalog and its
// bytes stop counting toward TotalBytes. The record bytes become garbage
// in their segment once the release flushes; compaction reclaims them when
// the segment's dead ratio crosses the threshold. The release record is
// queued and hits the log only at the next Sync (see the package comment):
// a crash before then resurrects the reference on reopen, which is the
// safe failure direction. Until that Sync the entry sits in limbo — dead
// to every read path, but still live on disk (see the limbo field).
func (s *Store) Release(id blobstore.ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failure != nil {
		return s.failure
	}
	e, ok := s.blobs[id]
	if !ok {
		return fmt.Errorf("diskstore: release %s: not found", id)
	}
	s.pending = append(s.pending, id)
	e.refs--
	if e.refs == 0 {
		s.bytes -= e.size
		delete(s.blobs, id)
		s.limbo[id] = e
	}
	s.dirty = true
	return nil
}

// TotalBytes returns the live payload bytes (released garbage excluded).
func (s *Store) TotalBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bytes
}

// IDs returns all live blob IDs in lexicographic order.
func (s *Store) IDs() []blobstore.ID {
	s.mu.RLock()
	out := make([]blobstore.ID, 0, len(s.blobs))
	for id := range s.blobs {
		out = append(out, id)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		return string(out[i][:]) < string(out[j][:])
	})
	return out
}

// syncSegmentsLocked fsyncs every segment with bytes appended since the
// previous sync and accounts the flush into st. Caller holds mu.
func (s *Store) syncSegmentsLocked(st *blobstore.SyncStats) error {
	nums := make([]uint32, 0, len(s.segs))
	for n := range s.segs {
		nums = append(nums, n)
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
	for _, n := range nums {
		if s.lens[n] <= s.syncedLen[n] {
			continue
		}
		if err := s.segs[n].Sync(); err != nil {
			s.fail(err)
			return fmt.Errorf("diskstore: sync segment %d: %w", n, err)
		}
		st.Segments++
		st.SegmentBytes += s.lens[n] - s.syncedLen[n]
		s.syncedLen[n] = s.lens[n]
	}
	return nil
}

// SyncData makes all preceding put and addref records durable without
// committing the index or the queued releases. It is the first half of the
// two-phase protocol a repository runs: after SyncData, metadata
// referencing the stored blobs may be committed; a full Sync then makes
// the releases and the index durable. Used alone it is still a valid
// (conservative) crash point — reopen replays the durable log tail from
// the old watermark.
func (s *Store) SyncData() (blobstore.SyncStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failure != nil {
		return blobstore.SyncStats{}, s.failure
	}
	var st blobstore.SyncStats
	err := s.syncSegmentsLocked(&st)
	return st, err
}

// Sync makes all preceding operations durable: the queued release records
// are appended to the log followed by one commit marker (so recovery
// applies the batch all-or-nothing), every segment with bytes appended
// since the previous sync is fsynced (only those — the store's save is
// incremental), and a fresh index is committed via write-temp + rename.
// After a crash anywhere inside Sync the store reopens to either the
// previous or the next committed state: segments are fsynced before the
// index that references them, and the log tail beyond the old watermark is
// replayed regardless. When the committed catalog leaves a sealed segment
// past the dead-ratio threshold, Sync then compacts it in the same call
// (unless Options disabled the automatic trigger) and folds the
// reclamation into its stats.
func (s *Store) Sync() (blobstore.SyncStats, error) {
	st, err := s.syncIndex()
	if err != nil {
		return st, err
	}
	s.mu.RLock()
	auto := s.deadGate >= 0 && len(s.candidateSegsLocked(s.deadGate)) > 0
	s.mu.RUnlock()
	if auto {
		cst, cerr := s.compact()
		st.SegmentsCompacted += cst.SegmentsCompacted
		st.BytesReclaimed += cst.BytesReclaimed
		if cerr != nil {
			return st, cerr
		}
	}
	s.mu.RLock()
	st.DeadBytes = s.deadBytesLocked()
	s.mu.RUnlock()
	return st, nil
}

// syncIndex is the flush-and-commit core of Sync, without the automatic
// compaction trigger (Compact and Close call it directly — a close must
// not grow into a surprise rewrite of half the store).
func (s *Store) syncIndex() (blobstore.SyncStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failure != nil {
		return blobstore.SyncStats{}, s.failure
	}
	var st blobstore.SyncStats
	if !s.dirty {
		// Nothing mutated since the last committed index: the identical
		// catalog does not need to be re-encoded and re-fsynced (Close
		// after an explicit Sync hits this path).
		return st, nil
	}
	for i, id := range s.pending {
		if _, _, err := s.appendLocked(recRelease, id[:]); err != nil {
			s.fail(err)
			s.pending = s.pending[i:] // keep the unlogged tail for diagnosis
			return st, err
		}
	}
	if len(s.pending) > 0 {
		// The marker is what commits the batch: recovery drops (and
		// truncates) any release run that ends without one.
		if _, _, err := s.appendLocked(recCommit, nil); err != nil {
			s.fail(err)
			return st, err
		}
	}
	s.pending = nil
	// The queued releases are in the log now: limbo entries stop being
	// live bytes, and their segments' dead ratios grow accordingly.
	for _, e := range s.limbo {
		s.liveSeg[e.seg] -= e.footprint()
	}
	s.limbo = make(map[blobstore.ID]*entry)
	if err := s.syncSegmentsLocked(&st); err != nil {
		return st, err
	}
	entries := make([]indexEntry, 0, len(s.blobs))
	for id, e := range s.blobs {
		entries = append(entries, indexEntry{id: id, seg: e.seg, off: e.off, size: e.size, refs: e.refs, kind: e.kind})
	}
	img := encodeIndex(s.active, s.lens[s.active], entries)
	if err := atomicfile.Write(s.fsys, filepath.Join(s.dir, "index"), img); err != nil {
		err = fmt.Errorf("diskstore: commit index: %w", err)
		s.fail(err)
		return st, err
	}
	st.IndexBytes = int64(len(img))
	s.dirty = false
	return st, nil
}

// deadBytesLocked sums record bytes no live entry accounts for across all
// open segments. Caller holds mu (shared suffices).
func (s *Store) deadBytesLocked() int64 {
	var dead int64
	for n, l := range s.lens {
		if d := l - int64(len(segmentMagic)) - s.liveSeg[n]; d > 0 {
			dead += d
		}
	}
	return dead
}

// Err returns the store's sticky I/O failure, if any: the first failed
// append, fsync or index commit, or on-disk damage a read found. Callers
// that are about to commit metadata referencing just-written blobs check
// here first.
func (s *Store) Err() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.failure
}

// Close syncs and releases all file handles and the directory lock. The
// store is unusable after. Close commits the index but never triggers
// compaction — shutdown must not grow into a rewrite of half the store —
// and it removes any evacuated segments still waiting on reader drain
// (their readers are dead with the store anyway).
func (s *Store) Close() error {
	_, err := s.syncIndex()
	s.mu.Lock()
	defer s.mu.Unlock()
	if cerr := s.closeFiles(true); err == nil {
		err = cerr
	}
	return err
}

// Abandon releases all file handles and the directory lock WITHOUT
// syncing anything. It is the release a repository needs after its
// metadata commit failed: Close would append the queued releases, making
// durable the reclamation of blobs that the still-committed metadata
// references. Evacuated segments pending reader drain are closed but left
// on disk; the next Open's sweep reclaims them.
func (s *Store) Abandon() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeFiles(false)
}

func (s *Store) closeFiles(removeRetired bool) error {
	var first error
	for n, f := range s.segs {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
		delete(s.segs, n)
	}
	for n, r := range s.retiring {
		if err := r.f.Close(); err != nil && first == nil {
			first = err
		}
		if removeRetired {
			if err := s.fsys.Remove(r.path); err != nil && first == nil {
				first = err
			}
		}
		delete(s.retiring, n)
	}
	if s.unlock != nil {
		if err := s.unlock(); err != nil && first == nil {
			first = err
		}
		s.unlock = nil
	}
	return first
}
