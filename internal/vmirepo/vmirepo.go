// Package vmirepo implements the Expelliarmus VMI repository of Fig. 2:
// content-addressed storage for binary packages, base images and user-data
// archives, plus the metadata database holding the Base Image, VMI and
// Package tables and the serialized master graphs. All operations charge
// their I/O to an optional simio.Meter so publish and retrieval times
// decompose exactly as in the paper's Fig. 5a.
//
// A Repo is safe for concurrent use. Individual operations rely on the
// sharded blob store and the per-bucket metadata locks; the check-and-store
// of package export, which must be atomic against concurrent publishes,
// goes through EnsurePackage. Snapshot quiesces all writers so the
// serialized blob and metadata sections are mutually consistent even while
// traffic is in flight.
package vmirepo

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"expelliarmus/internal/api"
	"expelliarmus/internal/blobstore"
	"expelliarmus/internal/blobstore/diskstore"
	"expelliarmus/internal/fsx"
	"expelliarmus/internal/master"
	"expelliarmus/internal/metadb"
	"expelliarmus/internal/metawal"
	"expelliarmus/internal/pkgmeta"
	"expelliarmus/internal/simio"
)

const (
	bucketPackages = "packages"
	bucketBases    = "bases"
	bucketMasters  = "masters"
	bucketVMIs     = "vmis"
	bucketUserData = "userdata"
	// Lifecycle buckets (see lifecycle.go): per-VMI lifecycle metadata
	// (tenant, expiry, charged bytes), per-tenant live-byte accounting,
	// and package reference counts for striped removal.
	bucketVMIMeta = "vmimeta"
	bucketTenants = "tenants"
	bucketPkgRefs = "pkgrefs"
)

// allBuckets is every fixed metadata bucket, (re)created by all repository
// constructors and on follower snapshot resets.
var allBuckets = []string{
	bucketPackages, bucketBases, bucketMasters, bucketVMIs, bucketUserData,
	bucketVMIMeta, bucketTenants, bucketPkgRefs,
}

// ErrNotFound marks lookups of records that are not in the repository. A
// reader that resolves under the view lock (ReadView) meets it only for
// records that are absent from the committed state it sees.
var ErrNotFound = api.ErrNotFound

// ErrReadOnly marks mutating calls on a follower repository (OpenFollower):
// a follower's metadata advances only by applying the writer's shipped
// snapshot + WAL batches, never by local mutation. Callers that need to
// write must talk to the writer.
var ErrReadOnly = api.ErrReadOnly

// ErrQuotaExceeded marks a publish rejected because it would push its
// tenant's live bytes past the configured quota.
var ErrQuotaExceeded = api.ErrQuotaExceeded

// Repo is the Expelliarmus repository. Its blob layer is pluggable: New
// gives the in-memory sharded backend, OpenAt the durable on-disk one;
// everything above the blobstore.Backend interface is identical, which the
// round-trip tests pin down to byte-identical snapshots.
type Repo struct {
	blobs blobstore.Backend
	// db is the metadata database, held through an atomic pointer and read
	// via meta(): a follower repository replaces the whole database on an
	// epoch switch (ResetToSnapshotReader) while readers are in flight. Writer
	// repositories store it once at construction and never again.
	db  atomic.Pointer[metadb.DB]
	dev *simio.Device
	// dir is the on-disk root for disk-backed repositories ("" when the
	// blob backend is in-memory); metadata commits land in the dir's
	// metadata WAL (see internal/metawal).
	dir string
	// wal is the metadata write-ahead log of a disk-backed repository
	// (nil when in-memory). Every committed metadata mutation streams
	// into it through the journal, so Sync appends the delta instead of
	// rewriting the whole database image.
	wal *metawal.Log
	// opMu is held in shared mode by every mutating operation and
	// exclusively by Snapshot, so a snapshot never interleaves with the
	// blob-put/record-put pair of a store operation (which would serialize
	// a metadata record whose blob is missing from the blob section).
	// Mutating operations on different keys still run concurrently — the
	// shared mode only excludes snapshots.
	opMu sync.RWMutex
	// view is the striped view lock (see ReadView and WriteView).
	view [ClassStripes]sync.RWMutex
	// udMu serialises user-data replacement, whose release-old/store-new
	// pair must be atomic to keep blob reference counts exact.
	udMu sync.Mutex
	// readOnly marks a follower repository (OpenFollower): every mutating
	// entry point returns ErrReadOnly, and the metadata advances only
	// through ResetToSnapshotReader/ApplyWAL.
	readOnly bool
	// fol is the WAL apply machinery of a follower repository (nil on
	// writers).
	fol *metawal.Follower
	// syncs counts Sync calls (see SyncCounters).
	syncs atomic.Uint64
	// gens are the striped repository generations: GenStripes counters,
	// read by the retrieval cache to key and invalidate cached assemblies.
	// Only the journal moves them, by the stripes of the keys each
	// metadata write touches (opKeys), so a publish on one base leaves
	// entries cached for unrelated bases reachable; an epoch-switch reset
	// moves them all. Monotonic, never persisted — a reopened or restored
	// repository starts a fresh generation space, which is safe because it
	// also starts with an empty cache.
	gens [GenStripes]atomic.Uint64
	// masters memoizes decoded master graphs: one slot per stripe of the
	// base ID (StripeFor), each holding the last graph decoded there and
	// the stored value it came from (see decodeMaster).
	masters [GenStripes]atomic.Pointer[masterMemo]
}

// GenStripes is the number of generation stripes. Keys (base-image IDs,
// VMI names) hash onto stripes via StripeFor; two keys sharing a stripe
// false-share invalidations (safe, just a lost warm entry), never miss
// one.
const GenStripes = 64

// HashKey hashes a repository scoping key (a base-image ID, a VMI name,
// an attribute quadruple) over the full 32-bit FNV-1a width. Callers
// reduce it by their own stripe count, so differently sized stripe
// spaces (generation stripes here, the core's commit-lock stripes) stay
// uniformly distributed and never couple to each other's counts.
func HashKey(key string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return h
}

// StripeFor maps a generation-scoping key — a base-image ID or a VMI
// name — to its stripe index.
func StripeFor(key string) int {
	return int(HashKey(key) % GenStripes)
}

// ClassStripes is the number of base-attribute-class stripes: the view
// lock's here, and core's commit lock's, which uses the same mapping, so a
// writer's view window locks only stripes whose commit locks it holds.
const ClassStripes = 16

// ClassStripe maps a base-attribute quadruple onto its class stripe.
func ClassStripe(attrs pkgmeta.BaseAttrs) int {
	return int(HashKey(attrs.String()) % ClassStripes)
}

// LockStripes locks the given stripes of mus in index order, or every
// stripe when none is given, and returns the unlock. Holders that all lock
// in index order cannot deadlock against each other.
func LockStripes[M any, L interface {
	*M
	sync.Locker
}](mus *[ClassStripes]M, stripes ...int) func() {
	var held [ClassStripes]bool
	for i := range held {
		held[i] = len(stripes) == 0
	}
	for _, i := range stripes {
		held[i] = true
	}
	for i := range mus {
		if held[i] {
			L(&mus[i]).Lock()
		}
	}
	return func() {
		for i := range mus {
			if held[i] {
				L(&mus[i]).Unlock()
			}
		}
	}
}

// ReadView takes every view stripe shared and returns the release. Every
// writer holds its class stripes exclusively around its metadata writes
// (WriteView), so a reader holding the view sees one committed state, never
// a mutation half-applied. A blob opened under the view stays readable
// after the release, even if a later mutation releases it: a reader
// resolves and opens under the view, and reads after.
func (r *Repo) ReadView() func() {
	for i := range r.view {
		r.view[i].RLock()
	}
	return func() {
		for i := range r.view {
			r.view[i].RUnlock()
		}
	}
}

// WriteView takes the given class stripes of the view lock exclusively,
// or every stripe when none is given, and returns the release. A writer
// brackets its metadata writes with it, a follower each applied batch.
func (r *Repo) WriteView(stripes ...int) func() { return LockStripes(&r.view, stripes...) }

// Generation returns the cross-stripe repository generation: the sum of
// all stripe counters, which moves on every mutation anywhere. It is the
// fallback for readers with no scoping key (a restore check, a whole-repo
// consistency probe); scoped readers — the retrieval cache — use
// GenerationFor and stay immune to unrelated stripes.
func (r *Repo) Generation() uint64 {
	var sum uint64
	for i := range r.gens {
		sum += r.gens[i].Load()
	}
	return sum
}

// GenerationFor returns the combined generation of the stripes covering
// keys (deduplicated, so the value is independent of key order and
// repetition). The journal bumps a stripe after every metadata write
// touching it, under the written bucket's lock, so a reader that sees a
// write also sees its bump. Every write a reader can see lands inside a
// view window (WriteView), and a reader captures GenerationFor under
// ReadView with everything it assembles from, so the value names exactly
// the state it read; observing the same value later means no write
// relevant to those keys committed since — the invariant the retrieval
// cache's insert path relies on. Because each counter only ever grows, an
// unchanged sum implies every constituent stripe is unchanged.
func (r *Repo) GenerationFor(keys ...string) uint64 {
	var seen [GenStripes]bool
	var sum uint64
	for _, k := range keys {
		i := StripeFor(k)
		if !seen[i] {
			seen[i] = true
			sum += r.gens[i].Load()
		}
	}
	return sum
}

// journal is the mutation journal of every metadata database the
// repository holds, writer and follower alike. It hands the op to the WAL
// of a disk-backed writer, then bumps the generation stripes the op scopes
// to. metadb calls it after the write, under the bucket lock, and a write
// that changes nothing journals nothing, so it invalidates nothing.
func (r *Repo) journal(op metadb.Op) {
	if r.wal != nil {
		r.wal.Record(op)
	}
	keys, all := opKeys(op)
	if all {
		r.bumpAll()
	}
	for _, k := range keys {
		r.gens[StripeFor(k)].Add(1)
	}
}

// opKeys returns the generation-scoping keys of one metadata op: the one
// place that says which write invalidates which cached assembly.
// bases/masters ops scope to the base-image ID, vmis/userdata/vmimeta ops
// to the VMI name, and a VMI put also to the base ID its record names. A
// package delete has no scoping key (a ref can be shared across bases), so
// all reports every stripe, as for an unknown bucket. A package insert
// scopes to nothing: it adds a ref no master graph references yet
// (publishes export packages before their master-graph update, and GC
// rebuilds masters before dropping refs), so no assembly can depend on it,
// and invalidating for it would flush warm entries on every concurrent
// publish. Tenant totals and package refcounts scope to nothing either:
// the assembly path never reads them.
func opKeys(op metadb.Op) (keys []string, all bool) {
	if op.Kind == metadb.OpCreateBucket {
		return nil, false
	}
	switch op.Bucket {
	case bucketBases, bucketMasters, bucketUserData, bucketVMIMeta:
		return []string{string(op.Key)}, false
	case bucketVMIs:
		if base, ok := vmiRecordBase(op.Value); ok { // a put: deletes carry no value
			return []string{string(op.Key), base}, false
		}
		return []string{string(op.Key)}, false
	case bucketPackages:
		return nil, op.Kind == metadb.OpDelete
	case bucketTenants, bucketPkgRefs:
		return nil, false
	}
	return nil, true
}

// bumpAll moves every generation stripe.
func (r *Repo) bumpAll() {
	for i := range r.gens {
		r.gens[i].Add(1)
	}
}

// attach makes db the repository's metadata database: it ensures the
// fixed buckets, then installs the journal. Bucket creation precedes the
// journal: every constructor (re)creates the buckets, on the live and the
// replay path alike, so journaling their creation would only append noise
// to the WAL.
func (r *Repo) attach(db *metadb.DB) {
	for _, b := range allBuckets {
		db.CreateBucket(b)
	}
	db.SetJournal(r.journal)
	r.db.Store(db)
}

// New returns an empty in-memory repository using the device for cost
// accounting.
func New(dev *simio.Device) *Repo {
	return NewWithBackend(dev, blobstore.New())
}

// NewWithBackend returns an empty repository over an explicit blob
// backend.
func NewWithBackend(dev *simio.Device, blobs blobstore.Backend) *Repo {
	r := &Repo{blobs: blobs, dev: dev}
	r.attach(metadb.New())
	return r
}

// meta returns the current metadata database. Writer repositories set it
// once; follower repositories swap it on every epoch switch, so callers
// must not cache the pointer across operations.
func (r *Repo) meta() *metadb.DB { return r.db.Load() }

// OpenOptions tune a disk-backed repository beyond the defaults.
type OpenOptions struct {
	// WALCompactBytes compacts the metadata WAL (full snapshot rewrite +
	// fresh log) when a Sync would grow it beyond this size. Zero means
	// metawal.DefaultCompactBytes; small values force compaction churn
	// for tests and stress legs.
	WALCompactBytes int64
	// BlobCompactDeadRatio is the dead-byte fraction at which a sealed
	// blob segment is compacted (rewritten and retired) by Sync. Zero
	// means diskstore.DefaultCompactDeadRatio; negative disables the
	// automatic trigger (Compact still reclaims on demand).
	BlobCompactDeadRatio float64
	// BlobMaxSegmentBytes rolls the active blob segment at this size.
	// Zero means diskstore.DefaultMaxSegmentBytes; small values force
	// multi-segment layouts (and tighter compaction granularity) for
	// tests and benchmarks.
	BlobMaxSegmentBytes int64
	// FS is the file system both stores live on; nil means the real one.
	// Tests pass an fsx.Fault to crash the repository or fail its I/O.
	FS fsx.FS
}

// OpenAt creates or reopens a disk-backed repository rooted at dir with
// default options: blobs live in dir/blobs (append-only segments + index,
// see diskstore), the metadata database in the dir's snapshot + WAL pair
// (see metawal). Reopening runs blob crash recovery and metadata WAL
// replay; call Sync to make later work durable.
func OpenAt(dir string, dev *simio.Device) (*Repo, error) {
	return OpenAtOpts(dir, dev, OpenOptions{})
}

// OpenAtOpts is OpenAt with explicit options.
func OpenAtOpts(dir string, dev *simio.Device, o OpenOptions) (*Repo, error) {
	blobs, err := diskstore.Open(filepath.Join(dir, "blobs"), diskstore.Options{
		CompactDeadRatio: o.BlobCompactDeadRatio,
		MaxSegmentBytes:  o.BlobMaxSegmentBytes,
		FS:               o.FS,
	})
	if err != nil {
		return nil, err
	}
	wal, db, err := metawal.Open(dir, metawal.Options{CompactBytes: o.WALCompactBytes, FS: o.FS})
	if err != nil {
		blobs.Close()
		return nil, fmt.Errorf("vmirepo: %w", err)
	}
	r := &Repo{blobs: blobs, dev: dev, dir: dir, wal: wal}
	r.attach(db)
	return r, nil
}

// WAL exposes the metadata write-ahead log of a disk-backed repository
// (nil when in-memory): recovery reports, compaction state and the
// replication readers.
func (r *Repo) WAL() *metawal.Log { return r.wal }

// Persistent reports whether the repository is disk-backed (Sync commits
// to durable storage) or in-memory (Snapshot/Load is the only
// persistence).
func (r *Repo) Persistent() bool { return r.dir != "" }

// blobErr surfaces the backend's sticky I/O failure. Every store
// operation checks it after its own put succeeded and before committing
// the metadata record that references the blob: another operation's
// failure can trip the store in between, and a record pointing at a blob
// that may never reach the durable log must not exist even in memory.
func (r *Repo) blobErr() error { return r.blobs.Err() }

// SyncStats reports one durable repository sync: the blob backend's
// flush plus the metadata commit. Declared in the api leaf, which the wire
// protocol and the facade alias too.
type SyncStats = api.SyncStats

// Sync makes the repository durable on disk. It quiesces mutating
// operations (like Snapshot), then runs the two-phase commit the durable
// backend contract exists for: first SyncData makes every new blob
// durable, then the metadata WAL appends and fsyncs the mutation delta
// and commits its durability watermark, then the full blob Sync makes
// the queued releases and the blob index durable. Each crash window is
// safe in the same direction: before the WAL watermark, old metadata
// plus extra durable blobs (orphans); after it, new metadata whose every
// referenced blob is already durable, with released blobs at worst
// resurrected as orphans — never committed records pointing at missing
// blobs. Sync on an in-memory repository returns an error; use Snapshot
// instead. Each call runs its own pass.
func (r *Repo) Sync() (SyncStats, error) {
	r.syncs.Add(1)
	return r.syncOrCompact(false)
}

// SyncCounters reports how many Sync calls arrived and how many physical
// sync passes ran. Every call runs its own pass, so the two are equal;
// Compact is not counted.
func (r *Repo) SyncCounters() (calls, physical uint64) {
	n := r.syncs.Load()
	return n, n
}

// Compact is Sync with forced compaction of both stores: the metadata
// state is rewritten as a fresh full snapshot at the next epoch with an
// empty log, and the blob backend reclaims the space of released blobs
// (evacuating and retiring segments past the dead-ratio gate). The size-
// and ratio-triggered compactions run the same code from inside Sync;
// this entry point exists for operators (and stress tests) that want to
// bound reopen cost and disk usage at a moment of their choosing.
func (r *Repo) Compact() (SyncStats, error) {
	return r.syncOrCompact(true)
}

func (r *Repo) syncOrCompact(forceCompact bool) (SyncStats, error) {
	if r.readOnly {
		return SyncStats{}, fmt.Errorf("vmirepo: sync: %w", ErrReadOnly)
	}
	if r.dir == "" {
		return SyncStats{}, fmt.Errorf("vmirepo: repository is in-memory; Sync requires OpenAt")
	}
	r.opMu.Lock()
	defer r.opMu.Unlock()
	var st SyncStats
	var err error
	if st.BlobSyncStats, err = r.blobs.SyncData(); err != nil {
		return st, err
	}
	if forceCompact {
		st.MetaSyncStats, err = r.wal.Compact()
	} else {
		st.MetaSyncStats, err = r.wal.Sync()
	}
	if err != nil {
		return st, fmt.Errorf("vmirepo: commit metadata log: %w", err)
	}
	rel, err := r.blobs.Sync()
	if err != nil {
		return st, err
	}
	st.Segments += rel.Segments
	st.SegmentBytes += rel.SegmentBytes
	st.IndexBytes = rel.IndexBytes
	st.SegmentsCompacted += rel.SegmentsCompacted
	st.BytesReclaimed += rel.BytesReclaimed
	st.DeadBytes = rel.DeadBytes
	if forceCompact {
		// The forced path reclaims blob garbage too, even when the
		// dead-ratio trigger would not have fired — the operator asked for
		// bounded disk, not a heuristic.
		cst, err := r.blobs.Compact()
		if err != nil {
			return st, err
		}
		st.SegmentsCompacted += cst.SegmentsCompacted
		st.BytesReclaimed += cst.BytesReclaimed
		st.DeadBytes = r.blobs.DiskStats().DeadBytes
	}
	return st, nil
}

// Close syncs (when the repository has a directory for its metadata) and
// releases backend resources — the backend is closed whether or not there
// is a directory, so a disk backend injected via NewWithBackend still gets
// its handles and directory lock released. A closed repository must not be
// used further.
func (r *Repo) Close() error {
	if r.dir != "" {
		if _, err := r.Sync(); err != nil {
			// Release everything without committing anything. The log's
			// Close never commits. The blob store's would flush the queued
			// blob releases even though the metadata that stopped
			// referencing those blobs failed to commit — manufacturing the
			// dangling-metadata state the two-phase protocol prevents — so
			// it is abandoned instead.
			r.wal.Close()
			if ds, ok := r.blobs.(*diskstore.Store); ok {
				ds.Abandon()
			}
			return err
		}
	}
	var first error
	if r.wal != nil {
		first = r.wal.Close()
	}
	if err := r.blobs.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// SizeBytes is the repository footprint: unique blob bytes plus the
// metadata database file — the quantity plotted in Fig. 3.
func (r *Repo) SizeBytes() int64 {
	return r.blobs.TotalBytes() + r.meta().SizeBytes()
}

func (r *Repo) chargeDB(m *simio.Meter, bytes int64) {
	if m != nil {
		m.Charge(simio.PhaseDB, r.dev.DBCost(bytes))
	}
}

// --- packages ---

// PackageRecord describes one stored binary package.
type PackageRecord struct {
	Pkg      pkgmeta.Package
	BlobID   blobstore.ID
	BlobSize int64
}

func encodePackageRecord(rec PackageRecord) []byte {
	var buf bytes.Buffer
	buf.Write(rec.BlobID[:])
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(rec.BlobSize))
	buf.Write(tmp[:n])
	buf.Write(pkgmeta.AppendControl(buf.AvailableBuffer(), rec.Pkg))
	return buf.Bytes()
}

func decodePackageRecord(data []byte) (PackageRecord, error) {
	var rec PackageRecord
	if len(data) < sha256.Size+1 {
		return rec, fmt.Errorf("vmirepo: truncated package record")
	}
	copy(rec.BlobID[:], data[:sha256.Size])
	r := bytes.NewReader(data[sha256.Size:])
	size, err := binary.ReadUvarint(r)
	if err != nil {
		return rec, err
	}
	rec.BlobSize = int64(size)
	control, err := io.ReadAll(r)
	if err != nil {
		return rec, err
	}
	rec.Pkg, err = pkgmeta.ParseControl(string(control))
	return rec, err
}

// HasPackage reports whether a package with the given Ref is stored. The
// index lookup charges one metadata access.
func (r *Repo) HasPackage(ref string, m *simio.Meter) bool {
	r.chargeDB(m, 0)
	_, ok := r.meta().Bucket(bucketPackages).Get([]byte(ref))
	return ok
}

// EnsurePackage stores the package if its Ref is not yet present and
// reports whether this call stored it. The check-and-insert is atomic, so
// concurrent publishes exporting the same package agree on exactly one
// winner; the loser's blob reference is released (the content-addressed
// store already deduplicated the bytes). Only the winner is charged the
// store write; the loser's outcome is equivalent to having observed the
// package via HasPackage. The insert moves no generation stripe (see
// opKeys).
func (r *Repo) EnsurePackage(p pkgmeta.Package, blob []byte, m *simio.Meter) (bool, error) {
	if r.readOnly {
		return false, fmt.Errorf("vmirepo: store package %s: %w", p.Ref(), ErrReadOnly)
	}
	r.opMu.RLock()
	defer r.opMu.RUnlock()
	key := []byte(p.Ref())
	id, _, _, err := r.blobs.PutReader(bytes.NewReader(blob))
	if err == nil {
		err = r.blobErr()
	}
	if err != nil {
		return false, fmt.Errorf("vmirepo: store package %s: %w", p.Ref(), err)
	}
	rec := PackageRecord{Pkg: p, BlobID: id, BlobSize: int64(len(blob))}
	val := encodePackageRecord(rec)
	if !r.meta().Bucket(bucketPackages).PutIfAbsent(key, val) {
		if err := r.blobs.Release(id); err != nil {
			return false, err
		}
		r.chargeDB(m, 0)
		return false, nil
	}
	if m != nil {
		m.Charge(simio.PhaseStore, r.dev.WriteCost(int64(len(blob))))
	}
	r.chargeDB(m, int64(len(val)))
	return true, nil
}

// Packages lists all stored package records sorted by Ref.
func (r *Repo) Packages() ([]PackageRecord, error) {
	var out []PackageRecord
	var err error
	r.meta().Bucket(bucketPackages).ForEach(func(k, v []byte) bool {
		var rec PackageRecord
		rec, err = decodePackageRecord(v)
		if err != nil {
			return false
		}
		out = append(out, rec)
		return true
	})
	return out, err
}

// --- base images ---

// BaseRecord describes one stored base image.
type BaseRecord struct {
	ID       string
	Attrs    pkgmeta.BaseAttrs
	BlobID   blobstore.ID
	BlobSize int64
}

func encodeBaseRecord(rec BaseRecord) []byte {
	return []byte(fmt.Sprintf("%s\n%d\n%s\n%s\n%s\n%s",
		hex.EncodeToString(rec.BlobID[:]), rec.BlobSize,
		rec.Attrs.Type, rec.Attrs.Distro, rec.Attrs.Version, rec.Attrs.Arch))
}

func decodeBaseRecord(id string, data []byte) (BaseRecord, error) {
	parts := strings.Split(string(data), "\n")
	if len(parts) != 6 {
		return BaseRecord{}, fmt.Errorf("vmirepo: corrupt base record for %s", id)
	}
	blobID, err := blobstore.ParseID(parts[0])
	if err != nil {
		return BaseRecord{}, err
	}
	var size int64
	if _, err := fmt.Sscanf(parts[1], "%d", &size); err != nil {
		return BaseRecord{}, err
	}
	return BaseRecord{
		ID: id, BlobID: blobID, BlobSize: size,
		Attrs: pkgmeta.BaseAttrs{Type: parts[2], Distro: parts[3], Version: parts[4], Arch: parts[5]},
	}, nil
}

// HasBase reports whether the base image is stored.
func (r *Repo) HasBase(id string, m *simio.Meter) bool {
	r.chargeDB(m, 0)
	_, ok := r.meta().Bucket(bucketBases).Get([]byte(id))
	return ok
}

// PutBaseReader streams a serialized base image from src into the
// repository: the bytes flow straight into the blob store (hashed and
// spooled by the backend in bounded chunks), so storing a gigabyte base
// never materializes it here. size is the expected serialized length when
// known (>= 0) — a publish knows it exactly via Disk.SerializedBytes — or
// -1 to accept whatever src yields; a known size that the stream fails to
// match releases the stored blob and errors, because a base record whose
// length disagrees with its blob would poison every later retrieval.
func (r *Repo) PutBaseReader(id string, attrs pkgmeta.BaseAttrs, src io.Reader, size int64, m *simio.Meter) error {
	if r.readOnly {
		return fmt.Errorf("vmirepo: store base %s: %w", id, ErrReadOnly)
	}
	r.opMu.RLock()
	defer r.opMu.RUnlock()
	b := r.meta().Bucket(bucketBases)
	if _, exists := b.Get([]byte(id)); exists {
		return fmt.Errorf("vmirepo: base %s already stored", id)
	}
	blobID, n, _, err := r.blobs.PutReader(src)
	if err != nil {
		return fmt.Errorf("vmirepo: store base %s: %w", id, err)
	}
	if err := r.blobErr(); err != nil {
		return fmt.Errorf("vmirepo: store base %s: %w", id, err)
	}
	if size >= 0 && n != size {
		if rerr := r.blobs.Release(blobID); rerr != nil {
			return fmt.Errorf("vmirepo: store base %s: stream yielded %d of %d bytes; release: %w", id, n, size, rerr)
		}
		return fmt.Errorf("vmirepo: store base %s: stream yielded %d of %d bytes", id, n, size)
	}
	rec := BaseRecord{ID: id, Attrs: attrs, BlobID: blobID, BlobSize: n}
	b.Put([]byte(id), encodeBaseRecord(rec))
	if m != nil {
		m.Charge(simio.PhaseStore, r.dev.WriteCost(n))
	}
	r.chargeDB(m, 64)
	return nil
}

// RemoveBase deletes a stored base image, reclaiming its blob (Algorithm 1
// line 27, remove(b, repo)).
func (r *Repo) RemoveBase(id string, m *simio.Meter) error {
	if r.readOnly {
		return fmt.Errorf("vmirepo: remove base %s: %w", id, ErrReadOnly)
	}
	r.opMu.RLock()
	defer r.opMu.RUnlock()
	b := r.meta().Bucket(bucketBases)
	val, ok := b.Get([]byte(id))
	r.chargeDB(m, 0)
	if !ok {
		return fmt.Errorf("vmirepo: base %s %w", id, ErrNotFound)
	}
	rec, err := decodeBaseRecord(id, val)
	if err != nil {
		return err
	}
	if err := r.blobs.Release(rec.BlobID); err != nil {
		return err
	}
	b.Delete([]byte(id))
	return nil
}

// BaseInfo returns a stored base image's record (attributes, blob ID and
// size) without opening its blob — the cheap class lookup removal and
// lifecycle accounting need.
func (r *Repo) BaseInfo(id string) (BaseRecord, error) {
	val, ok := r.meta().Bucket(bucketBases).Get([]byte(id))
	if !ok {
		return BaseRecord{}, fmt.Errorf("vmirepo: base %s %w", id, ErrNotFound)
	}
	return decodeBaseRecord(id, val)
}

// Bases lists stored base images sorted by ID (Algorithm 2 line 3).
func (r *Repo) Bases() ([]BaseRecord, error) {
	var out []BaseRecord
	var err error
	r.meta().Bucket(bucketBases).ForEach(func(k, v []byte) bool {
		var rec BaseRecord
		rec, err = decodeBaseRecord(string(k), v)
		if err != nil {
			return false
		}
		out = append(out, rec)
		return true
	})
	return out, err
}

// --- master graphs ---

// PutMaster stores (or replaces) the master graph keyed by its base image.
// Rewriting the bytes already stored journals nothing (metadb's write
// rule), so a republish of an unchanged image pushes no copy of the
// largest metadata record into the WAL. The modeled DB charge is the same
// either way: the cost model accounts the logical operation.
func (r *Repo) PutMaster(mg *master.Graph, m *simio.Meter) error {
	if r.readOnly {
		return fmt.Errorf("vmirepo: store master for %s: %w", mg.BaseID, ErrReadOnly)
	}
	r.opMu.RLock()
	defer r.opMu.RUnlock()
	data := mg.Marshal()
	r.meta().Bucket(bucketMasters).Put([]byte(mg.BaseID), data)
	r.chargeDB(m, int64(len(data)))
	return nil
}

// GetMaster loads the master graph of a base image. The graph is shared
// with every other caller reading the same stored value and must not be
// modified; use Clone to derive a new one.
func (r *Repo) GetMaster(baseID string, m *simio.Meter) (*master.Graph, error) {
	val, ok := r.meta().Bucket(bucketMasters).Get([]byte(baseID))
	r.chargeDB(m, int64(len(val)))
	if !ok {
		return nil, fmt.Errorf("vmirepo: master graph for %s %w", baseID, ErrNotFound)
	}
	return r.decodeMaster(baseID, val)
}

// masterMemo is one decoded master graph and the stored value it was
// decoded from.
type masterMemo struct {
	baseID string
	raw    []byte
	g      *master.Graph
}

// decodeMaster returns the master graph stored as raw under baseID,
// decoding only when baseID's memo slot holds another stored value. The
// metadata database copies every value it stores and never modifies one,
// and the slot keeps raw's array alive, so the same first-byte address and
// length mean the same bytes: writer puts, follower batches, snapshot
// resets and reopens all store new arrays, and there is nothing to
// invalidate.
func (r *Repo) decodeMaster(baseID string, raw []byte) (*master.Graph, error) {
	slot := &r.masters[StripeFor(baseID)]
	if e := slot.Load(); e != nil && e.baseID == baseID && len(e.raw) == len(raw) && len(raw) > 0 && &e.raw[0] == &raw[0] {
		return e.g, nil
	}
	g, err := master.Unmarshal(raw)
	if err != nil {
		return nil, err
	}
	slot.Store(&masterMemo{baseID: baseID, raw: raw, g: g})
	return g, nil
}

// RemoveMaster deletes a master graph.
func (r *Repo) RemoveMaster(baseID string, m *simio.Meter) error {
	if r.readOnly {
		return fmt.Errorf("vmirepo: remove master for %s: %w", baseID, ErrReadOnly)
	}
	r.opMu.RLock()
	defer r.opMu.RUnlock()
	r.meta().Bucket(bucketMasters).Delete([]byte(baseID))
	r.chargeDB(m, 0)
	return nil
}

// Masters returns all master graphs sorted by base ID. Like GetMaster's,
// the graphs are shared and must not be modified; use Clone to derive a
// new one.
func (r *Repo) Masters() ([]*master.Graph, error) {
	var out []*master.Graph
	var err error
	r.meta().Bucket(bucketMasters).ForEach(func(k, v []byte) bool {
		var mg *master.Graph
		mg, err = r.decodeMaster(string(k), v)
		if err != nil {
			return false
		}
		out = append(out, mg)
		return true
	})
	return out, err
}

// --- VMI records ---

// VMIRecord maps a published VMI name to its decomposition.
type VMIRecord struct {
	Name      string
	BaseID    string
	Primaries []string
}

// encodeVMIRecord renders a VMI record's value: the base ID, a newline,
// then the primaries joined by ",". A primary name holding a "," would read
// back as two names, so PublishWith refuses one before any write.
func encodeVMIRecord(rec VMIRecord) []byte {
	return []byte(rec.BaseID + "\n" + strings.Join(rec.Primaries, ","))
}

// vmiRecordBase returns the base ID heading a VMI record value without
// parsing its primaries: the journal hook reads it on every vmis commit.
func vmiRecordBase(data []byte) (string, bool) {
	base, _, ok := bytes.Cut(data, []byte("\n"))
	return string(base), ok
}

func decodeVMIRecord(name string, data []byte) (VMIRecord, error) {
	base, ok := vmiRecordBase(data)
	if !ok {
		return VMIRecord{}, fmt.Errorf("vmirepo: corrupt VMI record %q", name)
	}
	rec := VMIRecord{Name: name, BaseID: base}
	if primaries := data[len(base)+1:]; len(primaries) > 0 {
		rec.Primaries = strings.Split(string(primaries), ",")
	}
	return rec, nil
}

// PutVMI stores a VMI record. Like PutMaster's, a rewrite of the stored
// bytes journals nothing and is charged the same modeled cost.
func (r *Repo) PutVMI(rec VMIRecord, m *simio.Meter) error {
	if r.readOnly {
		return fmt.Errorf("vmirepo: store VMI %q: %w", rec.Name, ErrReadOnly)
	}
	r.opMu.RLock()
	defer r.opMu.RUnlock()
	val := encodeVMIRecord(rec)
	r.meta().Bucket(bucketVMIs).Put([]byte(rec.Name), val)
	r.chargeDB(m, int64(len(val)))
	return nil
}

// GetVMI loads a VMI record by name.
func (r *Repo) GetVMI(name string, m *simio.Meter) (VMIRecord, error) {
	val, ok := r.meta().Bucket(bucketVMIs).Get([]byte(name))
	r.chargeDB(m, 0)
	if !ok {
		return VMIRecord{}, fmt.Errorf("vmirepo: VMI %q %w", name, ErrNotFound)
	}
	return decodeVMIRecord(name, val)
}

// RewireVMIs repoints every VMI record referencing oldBase to newBase,
// used when base-image selection replaces an obsolete base (its clustered
// primary subgraphs having been merged into the surviving master).
//
// Each rewrite is an atomic compare-and-rewrite that re-checks the record
// still points at oldBase: under striped commit locks a publish of the
// same VMI name on a *different* attribute class can commit between the
// scan and the rewrite (its commit stripe does not exclude this one), and
// blindly repointing would splice that publish's primaries onto this
// class's base. A record that moved since the scan is left to its new
// owner: the rewrite returns it unchanged, which writes nothing.
func (r *Repo) RewireVMIs(oldBase, newBase string, m *simio.Meter) error {
	if r.readOnly {
		return fmt.Errorf("vmirepo: rewire VMIs %s -> %s: %w", oldBase, newBase, ErrReadOnly)
	}
	r.opMu.RLock()
	defer r.opMu.RUnlock()
	b := r.meta().Bucket(bucketVMIs)
	var names []string
	b.ForEach(func(k, v []byte) bool {
		if rec, err := decodeVMIRecord(string(k), v); err == nil && rec.BaseID == oldBase {
			names = append(names, rec.Name)
		}
		return true
	})
	for _, name := range names {
		b.Update([]byte(name), func(old []byte, ok bool) ([]byte, bool) {
			rec, err := decodeVMIRecord(name, old)
			if !ok || err != nil || rec.BaseID != oldBase {
				return old, ok
			}
			r.chargeDB(m, int64(len(old)))
			rec.BaseID = newBase
			return encodeVMIRecord(rec), true
		})
	}
	return nil
}

// VMIs lists stored VMI names.
func (r *Repo) VMIs() []string {
	var out []string
	r.meta().Bucket(bucketVMIs).ForEach(func(k, v []byte) bool {
		out = append(out, string(k))
		return true
	})
	return out
}

// --- user data ---

// StageUserData stores a user-data archive's bytes ahead of the record
// that will name them and returns their blob ID, so a publish writes the
// bytes before its view window and swaps the record inside it. The blob
// holds a reference of its own until SetUserData hands it to the record or
// ReleaseStaged drops it.
func (r *Repo) StageUserData(archive []byte, m *simio.Meter) (blobstore.ID, error) {
	if r.readOnly {
		return blobstore.ID{}, fmt.Errorf("vmirepo: store user data: %w", ErrReadOnly)
	}
	r.opMu.RLock()
	defer r.opMu.RUnlock()
	id, _, _, err := r.blobs.PutReader(bytes.NewReader(archive))
	if err == nil {
		err = r.blobErr()
	}
	if err != nil {
		return id, fmt.Errorf("vmirepo: store user data: %w", err)
	}
	if m != nil {
		m.Charge(simio.PhaseStore, r.dev.WriteCost(int64(len(archive))))
	}
	return id, nil
}

// ReleaseStaged drops the reference of a staged archive no record took:
// the cleanup of a publish that failed before its commit.
func (r *Repo) ReleaseStaged(id blobstore.ID) error {
	r.opMu.RLock()
	defer r.opMu.RUnlock()
	return r.blobs.Release(id)
}

// SetUserData points name's user-data record at a staged archive, handing
// the record the staged reference and releasing the one it held before; a
// nil id deletes the record. A republish whose user data did not change
// rewrites the same bytes, which journals nothing.
func (r *Repo) SetUserData(name string, id *blobstore.ID, m *simio.Meter) error {
	if r.readOnly {
		return fmt.Errorf("vmirepo: store user data %q: %w", name, ErrReadOnly)
	}
	r.opMu.RLock()
	defer r.opMu.RUnlock()
	r.udMu.Lock()
	defer r.udMu.Unlock()
	b := r.meta().Bucket(bucketUserData)
	old, ok := b.Get([]byte(name))
	switch {
	case id != nil:
		r.chargeDB(m, 40)
	case !ok:
		return nil
	default:
		r.chargeDB(m, 0)
	}
	if ok {
		var oldID blobstore.ID
		copy(oldID[:], old)
		if err := r.blobs.Release(oldID); err != nil {
			return fmt.Errorf("vmirepo: replace user data %q: %w", name, err)
		}
	}
	if id == nil {
		b.Delete([]byte(name))
	} else {
		b.Put([]byte(name), id[:])
	}
	return nil
}

// RemovePackage deletes a stored package record and releases its blob.
func (r *Repo) RemovePackage(ref string, m *simio.Meter) error {
	if r.readOnly {
		return fmt.Errorf("vmirepo: remove package %s: %w", ref, ErrReadOnly)
	}
	r.opMu.RLock()
	defer r.opMu.RUnlock()
	b := r.meta().Bucket(bucketPackages)
	val, ok := b.Get([]byte(ref))
	r.chargeDB(m, 0)
	if !ok {
		return fmt.Errorf("vmirepo: package %s %w", ref, ErrNotFound)
	}
	rec, err := decodePackageRecord(val)
	if err != nil {
		return err
	}
	if err := r.blobs.Release(rec.BlobID); err != nil {
		return err
	}
	b.Delete([]byte(ref))
	return nil
}

// RemoveUserData deletes a VMI's user-data archive if present; only a
// deletion is charged.
func (r *Repo) RemoveUserData(name string, m *simio.Meter) error { return r.SetUserData(name, nil, m) }

// RemoveVMI deletes a VMI record.
func (r *Repo) RemoveVMI(name string, m *simio.Meter) error {
	if r.readOnly {
		return fmt.Errorf("vmirepo: remove VMI %q: %w", name, ErrReadOnly)
	}
	r.opMu.RLock()
	defer r.opMu.RUnlock()
	r.meta().Bucket(bucketVMIs).Delete([]byte(name))
	r.chargeDB(m, 0)
	return nil
}

var repoSnapshotMagic = []byte("EXPREPO1")

// Snapshot serialises the whole repository — blobs and metadata database —
// for durable storage; Load restores it. Snapshot waits for in-flight
// store/remove operations to finish and blocks new ones while the two
// sections are captured, so a record serialized into the metadata section
// always has its blob in the blob section, even when taken mid-traffic.
// A blob the backend can no longer read faithfully (post-hoc disk damage)
// surfaces as an error here rather than a corrupt snapshot.
func (r *Repo) Snapshot() ([]byte, error) {
	r.opMu.Lock()
	defer r.opMu.Unlock()
	blobs, err := blobstore.Snapshot(r.blobs)
	if err != nil {
		return nil, fmt.Errorf("vmirepo: snapshot blobs: %w", err)
	}
	db := r.meta().Snapshot()
	out := make([]byte, 0, len(repoSnapshotMagic)+16+len(blobs)+len(db))
	out = append(out, repoSnapshotMagic...)
	var lenBuf [8]byte
	binary.BigEndian.PutUint64(lenBuf[:], uint64(len(blobs)))
	out = append(out, lenBuf[:]...)
	out = append(out, blobs...)
	binary.BigEndian.PutUint64(lenBuf[:], uint64(len(db)))
	out = append(out, lenBuf[:]...)
	out = append(out, db...)
	return out, nil
}

// Load restores a repository from a Snapshot image.
func Load(image []byte, dev *simio.Device) (*Repo, error) {
	if len(image) < len(repoSnapshotMagic)+16 || !bytes.Equal(image[:len(repoSnapshotMagic)], repoSnapshotMagic) {
		return nil, fmt.Errorf("vmirepo: bad snapshot magic")
	}
	rest := image[len(repoSnapshotMagic):]
	blobLen := binary.BigEndian.Uint64(rest[:8])
	rest = rest[8:]
	if blobLen > uint64(len(rest)) {
		return nil, fmt.Errorf("vmirepo: truncated blob section")
	}
	blobs, err := blobstore.Load(rest[:blobLen])
	if err != nil {
		return nil, err
	}
	rest = rest[blobLen:]
	if len(rest) < 8 {
		return nil, fmt.Errorf("vmirepo: truncated db section")
	}
	dbLen := binary.BigEndian.Uint64(rest[:8])
	rest = rest[8:]
	if dbLen > uint64(len(rest)) {
		return nil, fmt.Errorf("vmirepo: truncated db payload")
	}
	db, err := metadb.Load(rest[:dbLen])
	if err != nil {
		return nil, err
	}
	r := &Repo{blobs: blobs, dev: dev}
	r.attach(db)
	return r, nil
}

// Stats summarises the repository.
type Stats struct {
	Packages int
	Bases    int
	VMIs     int
	// BlobBytes is the LIVE blob payload bytes — the deduplicated logical
	// size the paper's figures plot. On a disk-backed repository it is not
	// disk usage; see BlobDiskBytes.
	BlobBytes  int64
	DBBytes    int64
	TotalBytes int64
	// BlobDiskBytes is the physical segment bytes on disk (live records,
	// dead records awaiting compaction, and evacuated files pinned by open
	// readers). Zero on in-memory repositories, where live is physical.
	BlobDiskBytes int64
	// BlobDeadBytes is the reclaimable garbage within BlobDiskBytes:
	// record bytes no live blob accounts for.
	BlobDeadBytes int64
}

// Stats returns current repository statistics.
func (r *Repo) Stats() Stats {
	st := Stats{
		Packages:   r.meta().Bucket(bucketPackages).Len(),
		Bases:      r.meta().Bucket(bucketBases).Len(),
		VMIs:       r.meta().Bucket(bucketVMIs).Len(),
		BlobBytes:  r.blobs.TotalBytes(),
		DBBytes:    r.meta().SizeBytes(),
		TotalBytes: r.SizeBytes(),
	}
	d := r.blobs.DiskStats()
	st.BlobDiskBytes = d.DiskBytes
	st.BlobDeadBytes = d.DeadBytes
	return st
}
