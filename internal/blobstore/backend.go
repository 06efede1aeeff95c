package blobstore

import (
	"io"

	"expelliarmus/internal/api"
)

// ErrNotFound reports that no live blob with the requested ID exists.
// Open returns it (wrapped) for absent blobs, so callers can tell a
// missing blob from one whose stored bytes can no longer be served.
var ErrNotFound = api.ErrBlobNotFound

// ErrCorrupt reports that a blob exists in the catalog but its stored
// bytes cannot be served faithfully — on-disk damage, not absence.
// Backends wrap it in the errors they return for such blobs; callers
// must never treat it as not-found (the data is there, but broken, and
// reporting it absent would silently turn durable data into missing
// data).
var ErrCorrupt = api.ErrBlobCorrupt

// Backend is the storage contract behind the repository's content-addressed
// blob layer. Two implementations exist: the in-memory sharded Store in
// this package, and the append-only on-disk store in
// internal/blobstore/diskstore. Both are exercised by the shared
// conformance suite in internal/blobstore/blobstoretest, which pins the
// exact put/get/ref-count/GC semantics a new backend must reproduce.
//
// All methods must be safe for concurrent use. Snapshot must serialise the
// live blobs and reference counts in the deterministic EXPBLB1 format
// produced by (*Store).Snapshot, so repository snapshots are byte-identical
// regardless of which backend captured them and Load can always restore
// them into memory.
type Backend interface {
	// Put stores data (if not already present) and takes one reference on
	// it, returning the blob ID and whether the content was newly stored.
	// The store never aliases data: the caller may reuse or mutate the
	// slice after Put returns. Implementations keep Put a thin adapter
	// over PutReader so both entry points share one streaming core.
	Put(data []byte) (ID, bool)
	// PutReader streams r into the store, hashing as it reads, and takes
	// one reference on the resulting blob. It returns the blob ID, the
	// number of bytes consumed, and whether the content was newly stored.
	// If r fails mid-stream the store is left unchanged and the read error
	// is returned. Peak memory is bounded by the chunk size (plus a small
	// spool for the on-disk backend), not the blob size.
	PutReader(r io.Reader) (ID, int64, bool, error)
	// Get returns a copy of the blob's contents; the caller owns the
	// returned slice and may mutate it freely. Implementations keep Get a
	// thin adapter over Open.
	Get(id ID) ([]byte, bool)
	// Open returns a reader over the blob's contents and its size. The
	// returned reader also implements io.ReaderAt for random access. It
	// never materializes the whole blob: the memory backend serves a
	// zero-copy view of its immutable stored bytes, and the disk backend
	// serves straight from the segment offset (spot-verifying the record
	// header on open, and verifying the full record checksum incrementally
	// as a sequential read crosses it). An absent blob reports an error
	// wrapping ErrNotFound; a blob the backend can no longer serve
	// faithfully (e.g. an on-disk record whose header no longer matches
	// the catalog) reports an error wrapping ErrCorrupt — the two must
	// never be conflated. An open reader stays readable after the blob is
	// released — and, for backends that compact, after the blob's bytes
	// are moved: the reader pins its underlying storage until closed — but
	// is valid only until the backend is closed. Close never fails;
	// callers must still call it, since a reader may hold a pin that
	// defers space reclamation until released.
	Open(id ID) (io.ReadCloser, int64, error)
	// Size returns the length of the blob without copying it.
	Size(id ID) (int64, bool)
	// Has reports whether the blob exists.
	Has(id ID) bool
	// AddRef takes an additional reference on an existing blob.
	AddRef(id ID) error
	// Refs returns the current reference count, or zero if absent.
	Refs(id ID) int
	// Release drops one reference; at zero the blob is deleted and its
	// bytes reclaimed from the live total.
	Release(id ID) error
	// Len returns the number of distinct live blobs.
	Len() int
	// TotalBytes returns the number of unique live bytes stored.
	TotalBytes() int64
	// Stats reports cumulative put and dedup-hit counts since the backend
	// was opened (counters are not persisted across reopen).
	Stats() (puts, hits int64)
	// IDs returns all live blob IDs in lexicographic order.
	IDs() []ID
	// Snapshot serialises live blobs and reference counts in the
	// deterministic EXPBLB1 format. A backend that can no longer read a
	// live blob faithfully (e.g. post-hoc disk damage) must return an
	// error rather than serialise wrong or partial content.
	Snapshot() ([]byte, error)

	// The durability half of the contract is two-phase so a repository can
	// order blob durability around its own metadata commit: SyncData makes
	// all preceding Put/AddRef operations durable (new blobs may then be
	// referenced by committed metadata), Sync additionally makes Release
	// operations and the backend's own catalog durable (releases must
	// become durable only after the metadata that stopped referencing the
	// blobs — see the diskstore package comment). Close syncs and releases
	// file handles. The in-memory store has nothing outside process memory
	// and answers all of these trivially.
	SyncData() (SyncStats, error)
	Sync() (SyncStats, error)
	Close() error
	// Err returns the backend's sticky I/O failure. Mutations cannot report
	// I/O failure through their own signatures, so a backend keeps the
	// first one and callers check here after writing blobs and before
	// committing metadata that references them.
	Err() error
	// Compact reclaims the space of released blobs on demand (a no-op where
	// a release frees the bytes immediately).
	Compact() (CompactStats, error)
	// DiskStats returns the physical-footprint accounting.
	DiskStats() DiskStats
}

// SyncStats reports what one durable sync wrote. It is declared in the
// api leaf because the repository's sync reply embeds it on the wire.
type SyncStats = api.BlobSyncStats

// CompactStats reports what one on-demand compaction reclaimed.
type CompactStats struct {
	// SegmentsCompacted counts segments evacuated and retired.
	SegmentsCompacted int
	// BytesReclaimed is the segment-file bytes those retirements freed
	// (files pinned by open readers are freed at reader close, but count
	// here).
	BytesReclaimed int64
	// BlobsMoved counts surviving records rewritten into fresh segments.
	BlobsMoved int
}

// DiskStats reports a backend's physical footprint next to its live bytes.
// The in-memory store reports live bytes only: it has no files, and a
// released blob's bytes are freed at once.
type DiskStats struct {
	// LiveBytes is the payload bytes of live blobs (what TotalBytes reports).
	LiveBytes int64
	// DiskBytes is the segment bytes actually on disk: every open segment
	// plus evacuated files still pinned by readers. The index file is not
	// included.
	DiskBytes int64
	// DeadBytes is the record bytes no live blob accounts for — what
	// compaction can eventually reclaim.
	DeadBytes int64
	// Segments is the number of open (non-retired) segment files.
	Segments int
	// SegmentsCompacted and BytesReclaimed are cumulative since Open.
	SegmentsCompacted int64
	BytesReclaimed    int64
}

// Backend conformance of the in-memory store.
var _ Backend = (*Store)(nil)
