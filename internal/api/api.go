// Package api is the leaf vocabulary the repository's layers share: the
// error sentinels an operation can unwrap to, the result bodies every
// operation returns, and a publish's lifecycle options. It holds
// declarations only and imports nothing but the standard library, so the
// storage engines below (blobstore, metawal, vmirepo, core) and the
// protocol above (wire, client) can both name these values without
// importing each other — the line the paper's Fig. 2 draws between the
// user-facing interface and the repository behind it. Each layer re-exports
// what it owns as an alias (vmirepo.ErrNotFound, blobstore.SyncStats,
// core.PublishOpts, wire.PublishResult, ...); those are the names callers
// use, and they are identical to the ones here.
package api

import "errors"

// The error vocabulary. Every value is distinct; the layer that returns
// one documents when (see the alias at its name there).
var (
	// ErrNotFound is vmirepo.ErrNotFound: a record not in the repository.
	ErrNotFound = errors.New("not found")
	// ErrReadOnly is vmirepo.ErrReadOnly: a mutation sent to a follower.
	ErrReadOnly = errors.New("repository is read-only (follower)")
	// ErrQuotaExceeded is vmirepo.ErrQuotaExceeded: a publish that would
	// push its tenant past the configured cap.
	ErrQuotaExceeded = errors.New("tenant quota exceeded")
	// ErrBlobNotFound is blobstore.ErrNotFound: no live blob with that ID.
	ErrBlobNotFound = errors.New("blob not found")
	// ErrBlobCorrupt is blobstore.ErrCorrupt: a blob whose stored bytes
	// can no longer be served faithfully.
	ErrBlobCorrupt = errors.New("blob corrupt")
	// ErrEpochGone is metawal.ErrEpochGone: a WAL epoch that a compaction
	// has retired.
	ErrEpochGone = errors.New("metawal: epoch no longer current")
)

// PublishOptions carry a publish's lifecycle metadata, in process and in
// the wire envelope's header alike.
type PublishOptions struct {
	// Tenant names the account charged for the bytes this publish stores.
	// Charged usage is visible in TenantStats and enforced against the
	// configured tenant quotas; empty means unaccounted.
	Tenant string
	// ExpiresAt is a Unix-seconds timestamp after which the image is
	// eligible for removal by the repository's TTL sweep (ExpireAt). Zero
	// means the image never expires.
	ExpiresAt int64
}

// PublishResult reports a publish operation: the flattened form of a core
// publish report, which is the server's reply body and the facade's return
// value.
type PublishResult struct {
	// Similarity is SimG against the best-matching master graph.
	Similarity float64
	// Exported lists the packages stored by this publish.
	Exported []string
	// Skipped counts packages already in the repository.
	Skipped int
	// BaseStored reports whether a new base image was stored.
	BaseStored bool
	// Seconds is the modeled publish time; Phases decomposes it.
	Seconds float64
	Phases  map[string]float64
}

// RetrieveResult reports a retrieval or assembly. For streamed responses
// it rides in the X-Expel-Result trailer, after the image bytes.
type RetrieveResult struct {
	// Imported lists the packages installed during assembly.
	Imported []string
	// Seconds is the modeled retrieval time; Phases decomposes it into the
	// paper's Fig. 5a components (copy, launch, reset, import, ...).
	Seconds float64
	Phases  map[string]float64
}

// BlobSyncStats reports what one durable blob-store sync wrote
// (blobstore.SyncStats). For the disk backend a sync is incremental: only
// segments with bytes appended since the previous sync are flushed, so
// after a quiet period Segments and SegmentBytes are zero even when the
// store holds gigabytes.
type BlobSyncStats struct {
	// Segments counts segment flushes (fsync calls on segment files). In a
	// repository-level sync the two phases (SyncData, then Sync) may each
	// flush the same file — once for new blob bytes, once for the release
	// records appended between the phases — so a combined report can count
	// one file twice; SegmentBytes never double-counts a byte.
	Segments int
	// SegmentBytes is the number of newly appended segment bytes made
	// durable by this sync (not the total store size).
	SegmentBytes int64
	// IndexBytes is the size of the index image committed by this sync.
	IndexBytes int64
	// SegmentsCompacted and BytesReclaimed report the segment compaction
	// this sync triggered, if any: segments evacuated and their file bytes
	// freed (a reclaimed file pinned by an open reader is freed when the
	// reader closes, but counts here).
	SegmentsCompacted int
	BytesReclaimed    int64
	// DeadBytes is the garbage remaining after this sync: record bytes in
	// segment files that no live blob accounts for. Nonzero is normal —
	// compaction runs only when a segment's dead ratio crosses the
	// threshold.
	DeadBytes int64
}

// SyncStats reports one durable repository sync (vmirepo.SyncStats): the
// server's reply to a sync or compact. The embedded blob half flattens
// into the same JSON object.
type SyncStats struct {
	// The blob backend's incremental flush (only segments appended since
	// the previous sync are written) and the segment compaction the sync
	// performed, automatically or because Compact forced it.
	BlobSyncStats
	// MetaBytes is the metadata bytes committed this sync: the WAL delta
	// (framed op records plus the commit marker) or, on a compacting
	// sync, the fresh full snapshot. On the hot path it is O(delta) — no
	// full metadata rewrite.
	MetaBytes int64
	// MetaOps is the number of metadata mutations this sync committed.
	MetaOps int
	// Compacted reports that this sync rewrote the metadata WAL into a
	// fresh snapshot; MetaSnapshotBytes is that snapshot's size.
	Compacted         bool
	MetaSnapshotBytes int64
}

// VacuumStats reports what one Vacuum pass reclaimed (core.VacuumStats):
// the server's reply to a vacuum.
type VacuumStats struct {
	// PackagesRemoved counts package records no VMI referenced.
	PackagesRemoved int
	// UserDataRemoved counts user-data archives whose VMI is gone.
	UserDataRemoved int
	// MetaRemoved counts lifecycle records whose VMI is gone.
	MetaRemoved int
	// BlobsReleased counts blobs no metadata record referenced (crash
	// orphans and abandoned publishes).
	BlobsReleased int
	// BytesReclaimed is the payload bytes of the removed packages and
	// released blobs.
	BytesReclaimed int64
}
