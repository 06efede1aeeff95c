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
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"expelliarmus/internal/api"
	"expelliarmus/internal/blobstore"
	"expelliarmus/internal/blobstore/diskstore"
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
	// and per-class package reference counts for striped removal.
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

// ErrNotFound marks lookups of records that are not in the repository.
// Under concurrency it is transient in one specific case: base-image
// selection may replace a base (rewiring VMI records to the survivor)
// between a reader's record fetch and its master/base fetch, so readers
// that hit it can re-read the record and retry (see core.Retrieve).
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
	// into it via the metadb journal hook, so Sync appends the delta
	// instead of rewriting the whole database image.
	wal *metawal.Log
	// opMu is held in shared mode by every mutating operation and
	// exclusively by Snapshot, so a snapshot never interleaves with the
	// blob-put/record-put pair of a store operation (which would serialize
	// a metadata record whose blob is missing from the blob section).
	// Mutating operations on different keys still run concurrently — the
	// shared mode only excludes snapshots.
	opMu sync.RWMutex
	// udMu serialises user-data replacement, whose release-old/store-new
	// pair must be atomic to keep blob reference counts exact.
	udMu sync.Mutex
	// lcMu serialises lifecycle accounting (tenant totals and package
	// refcounts), whose read-modify-write must include the delete-at-zero
	// step that Bucket.Update cannot express (see lifecycle.go).
	lcMu sync.Mutex
	// readOnly marks a follower repository (OpenFollower): every mutating
	// entry point returns ErrReadOnly, and the metadata advances only
	// through ResetToSnapshotReader/ApplyWAL.
	readOnly bool
	// fol is the WAL apply machinery of a follower repository (nil on
	// writers).
	fol *metawal.Follower
	// sg coalesces concurrent Sync callers into shared physical commits
	// (group commit) — see Sync.
	sg syncGroup
	// gens are the striped repository generations: GenStripes counters,
	// each bumped around every mutating operation that touches its stripe
	// (see mutate), read by the retrieval cache to key and invalidate
	// cached assemblies. Mutations scope their bumps to the stripes of the
	// keys they touch (a base-image ID, a VMI name), so a publish on one
	// base leaves entries cached for unrelated bases reachable; operations
	// with no scoping key (package GC) bump every stripe. Monotonic, never
	// persisted — a reopened or restored repository starts a fresh
	// generation space, which is safe because it also starts with an empty
	// cache.
	gens [GenStripes]atomic.Uint64
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
// repetition). Each stripe counter is bumped both before and after every
// mutation touching it, so a reader that captures GenerationFor, performs
// a multi-step read (e.g. a whole VMI assembly) and then observes the
// same value knows that no mutation relevant to those keys committed
// anywhere inside its window — the invariant the retrieval cache's insert
// path relies on. A mutation in flight (bumped before, not yet after)
// keeps the value moving, so such a window can also never span one.
// Because each counter only ever grows, an unchanged sum implies every
// constituent stripe is unchanged.
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

// mutate brackets a mutating operation for the generation protocol: one
// bump before the first write makes any reader that started earlier
// unable to validate its window, one bump after the last write moves all
// later readers to fresh cache keys. The bumps land only on the stripes
// of the given keys — the base image(s) and/or VMI name the mutation
// touches — so readers scoped to other stripes keep their windows; with
// no keys every stripe is bumped (the conservative fallback for
// mutations whose blast radius has no single key, e.g. package GC). Use
// as `defer r.mutate(keys...)()`.
func (r *Repo) mutate(keys ...string) func() {
	if len(keys) == 0 {
		for i := range r.gens {
			r.gens[i].Add(1)
		}
		return func() {
			for i := range r.gens {
				r.gens[i].Add(1)
			}
		}
	}
	var seen [GenStripes]bool
	var stripes []int
	for _, k := range keys {
		if i := StripeFor(k); !seen[i] {
			seen[i] = true
			stripes = append(stripes, i)
		}
	}
	for _, i := range stripes {
		r.gens[i].Add(1)
	}
	return func() {
		for _, i := range stripes {
			r.gens[i].Add(1)
		}
	}
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
	r.db.Store(metadb.New())
	r.createBuckets()
	return r
}

// meta returns the current metadata database. Writer repositories set it
// once; follower repositories swap it on every epoch switch, so callers
// must not cache the pointer across operations.
func (r *Repo) meta() *metadb.DB { return r.db.Load() }

// createBuckets ensures the repository's metadata buckets exist
// (CreateBucket is idempotent, so this is safe on a loaded database too).
func (r *Repo) createBuckets() {
	for _, b := range allBuckets {
		r.meta().CreateBucket(b)
	}
}

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
	})
	if err != nil {
		return nil, err
	}
	wal, db, err := metawal.Open(dir, metawal.Options{CompactBytes: o.WALCompactBytes})
	if err != nil {
		blobs.Close()
		return nil, fmt.Errorf("vmirepo: %w", err)
	}
	r := &Repo{blobs: blobs, dev: dev, dir: dir, wal: wal}
	r.db.Store(db)
	// Bucket creation precedes the journal hookup: the fixed buckets are
	// (re)created by every open on both the live and the replay path, so
	// journaling their creation would only append noise to the WAL.
	r.createBuckets()
	db.SetJournal(wal.Record)
	return r, nil
}

// Abandon drops a disk-backed repository's file handles and directory
// lock without syncing anything — a crash simulation for recovery tests;
// production code wants Close. In-memory repositories have nothing to
// abandon.
func (r *Repo) Abandon() error {
	var first error
	if r.wal != nil {
		first = r.wal.Abandon()
	}
	if ds, ok := r.diskBlobs(); ok {
		if err := ds.Abandon(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// diskBlobs returns the concrete on-disk blob store of a disk-backed
// writer repository — the crash-test seams (Abandon, BlobRecovery) are
// the only callers that need more than the Backend contract.
func (r *Repo) diskBlobs() (*diskstore.Store, bool) {
	ds, ok := r.blobs.(*diskstore.Store)
	return ds, ok
}

// WAL exposes the metadata write-ahead log of a disk-backed repository
// (nil when in-memory) — recovery reports, compaction state, and the
// crash-injection hook the kill-point tests use.
func (r *Repo) WAL() *metawal.Log { return r.wal }

// Persistent reports whether the repository is disk-backed (Sync commits
// to durable storage) or in-memory (Snapshot/Load is the only
// persistence).
func (r *Repo) Persistent() bool { return r.dir != "" }

// blobErr surfaces the backend's sticky I/O failure. Backend.Put cannot
// report failure (its bool means "newly stored"), so every store
// operation checks here between writing a blob and committing the
// metadata record that references it — a record pointing at a blob that
// never hit the log must not exist even in memory.
func (r *Repo) blobErr() error { return r.blobs.Err() }

// BlobRecovery returns the blob store's crash-recovery report when the
// repository is disk-backed.
func (r *Repo) BlobRecovery() (diskstore.RecoveryReport, bool) {
	if ds, ok := r.diskBlobs(); ok {
		return ds.Recovery(), true
	}
	return diskstore.RecoveryReport{}, false
}

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
// instead.
//
// Concurrent Sync callers group-commit: each caller needs one physical
// sync that STARTS after its call does (so its completed operations are
// covered), but a burst of N callers shares physical passes instead of
// queueing N fsync+watermark rounds — one pass for everyone who arrived
// while the previous one ran. A caller observes at most two passes
// (the in-flight one it cannot join, then the shared one it can).
func (r *Repo) Sync() (SyncStats, error) {
	g := &r.sg
	g.mu.Lock()
	if g.cond == nil {
		g.cond = sync.NewCond(&g.mu)
	}
	g.calls++
	// The pass this caller needs: the next one to start — or, when one is
	// already running, the one after it (the running pass's WAL batch was
	// sealed before this call arrived, so it may not cover it).
	target := g.completed + 1
	if g.running {
		target++
	}
	for {
		if g.completed >= target {
			st, err := g.lastSt, g.lastErr
			g.mu.Unlock()
			return st, err
		}
		if !g.running {
			g.running = true
			g.mu.Unlock()
			st, err := r.syncOrCompact(false)
			g.mu.Lock()
			g.running = false
			g.completed++
			g.lastSt, g.lastErr = st, err
			g.cond.Broadcast()
			g.mu.Unlock()
			return st, err
		}
		g.cond.Wait()
	}
}

// syncGroup is Sync's group-commit state: a generation counter of
// physical passes plus the last pass's result, shared with the callers
// that coalesced into it.
type syncGroup struct {
	mu        sync.Mutex
	cond      *sync.Cond
	running   bool
	completed uint64 // physical passes finished
	calls     uint64 // Sync calls arrived (observability)
	lastSt    SyncStats
	lastErr   error
}

// SyncCounters reports how many Sync calls arrived and how many physical
// sync passes actually ran — the group-commit coalescing ratio. Both only
// count Sync; Compact always runs its own pass.
func (r *Repo) SyncCounters() (calls, physical uint64) {
	r.sg.mu.Lock()
	defer r.sg.mu.Unlock()
	return r.sg.calls, r.sg.completed
}

// Compact is Sync with forced compaction of both stores: the metadata
// state is rewritten as a fresh full snapshot at the next epoch with an
// empty log, and the blob backend reclaims the space of released blobs
// (evacuating and retiring segments past the dead-ratio gate). The size-
// and ratio-triggered compactions run the same code from inside Sync;
// this entry point exists for operators (and stress tests) that want to
// bound reopen cost and disk usage at a moment of their choosing. Compact
// never coalesces with grouped Syncs — the operator asked for this exact
// pass.
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
	var ws metawal.SyncStats
	if forceCompact {
		ws, err = r.wal.Compact()
	} else {
		ws, err = r.wal.Sync()
	}
	if err != nil {
		return st, fmt.Errorf("vmirepo: commit metadata log: %w", err)
	}
	st.MetaBytes = ws.WALBytes + ws.SnapshotBytes
	st.MetaOps = ws.Ops
	st.Compacted = ws.Compacted
	st.MetaSnapshotBytes = ws.SnapshotBytes
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
			// Do NOT close the backend here: its internal sync would flush the
			// queued blob releases even though the metadata that stopped
			// referencing those blobs failed to commit — manufacturing the
			// dangling-metadata state the two-phase protocol prevents.
			// Abandon releases the handles and lock without syncing.
			r.Abandon()
			return err
		}
	}
	var first error
	if r.wal != nil {
		// The Sync above already committed everything; this only releases
		// the WAL file handle (its internal close-sync is a no-op).
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
	buf.WriteString(pkgmeta.FormatControl(rec.Pkg))
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
// package via HasPackage.
//
// EnsurePackage deliberately does NOT bump any generation stripe: it can
// only add a ref that no master graph references yet (publishes commit
// their master-graph update strictly after exporting packages, and GC
// rebuilds masters before dropping refs), so no assembly's output can
// depend on the insert — invalidating cached images for it would flush
// warm entries on the data-plane phase of every concurrent publish for
// nothing.
func (r *Repo) EnsurePackage(p pkgmeta.Package, blob []byte, m *simio.Meter) (bool, error) {
	if r.readOnly {
		return false, fmt.Errorf("vmirepo: store package %s: %w", p.Ref(), ErrReadOnly)
	}
	r.opMu.RLock()
	defer r.opMu.RUnlock()
	key := []byte(p.Ref())
	id, _ := r.blobs.Put(blob)
	if err := r.blobErr(); err != nil {
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

// GetPackage returns the stored package metadata and blob, charging the
// blob read to the given phase.
func (r *Repo) GetPackage(ref string, ph simio.Phase, m *simio.Meter) (pkgmeta.Package, []byte, error) {
	pkg, rc, size, err := r.OpenPackage(ref, ph, m)
	if err != nil {
		return pkgmeta.Package{}, nil, err
	}
	blob, err := readAll(rc, size, "package blob")
	if err != nil {
		return pkgmeta.Package{}, nil, err
	}
	return pkg, blob, nil
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
	defer r.mutate(id)()
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
	defer r.mutate(id)()
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
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, err
}

// --- master graphs ---

// PutMaster stores (or replaces) the master graph keyed by its base image.
// A rewrite that would not change the stored bytes is elided — the master
// is the largest metadata record, and a republish of an unchanged image
// must not push a full copy of it into the metadata WAL. The modeled DB
// charge is unchanged either way (the cost model accounts the logical
// operation; the elision is an I/O-layer optimisation).
func (r *Repo) PutMaster(mg *master.Graph, m *simio.Meter) error {
	if r.readOnly {
		return fmt.Errorf("vmirepo: store master for %s: %w", mg.BaseID, ErrReadOnly)
	}
	r.opMu.RLock()
	defer r.opMu.RUnlock()
	defer r.mutate(mg.BaseID)()
	data := mg.Marshal()
	r.meta().Bucket(bucketMasters).Update([]byte(mg.BaseID), func(old []byte, ok bool) ([]byte, bool) {
		if ok && bytes.Equal(old, data) {
			return nil, false
		}
		return data, true
	})
	r.chargeDB(m, int64(len(data)))
	return nil
}

// GetMaster loads the master graph of a base image.
func (r *Repo) GetMaster(baseID string, m *simio.Meter) (*master.Graph, error) {
	val, ok := r.meta().Bucket(bucketMasters).Get([]byte(baseID))
	r.chargeDB(m, int64(len(val)))
	if !ok {
		return nil, fmt.Errorf("vmirepo: master graph for %s %w", baseID, ErrNotFound)
	}
	return master.Unmarshal(val)
}

// RemoveMaster deletes a master graph.
func (r *Repo) RemoveMaster(baseID string, m *simio.Meter) error {
	if r.readOnly {
		return fmt.Errorf("vmirepo: remove master for %s: %w", baseID, ErrReadOnly)
	}
	r.opMu.RLock()
	defer r.opMu.RUnlock()
	defer r.mutate(baseID)()
	r.meta().Bucket(bucketMasters).Delete([]byte(baseID))
	r.chargeDB(m, 0)
	return nil
}

// Masters returns all master graphs sorted by base ID.
func (r *Repo) Masters() ([]*master.Graph, error) {
	var out []*master.Graph
	var err error
	r.meta().Bucket(bucketMasters).ForEach(func(k, v []byte) bool {
		var mg *master.Graph
		mg, err = master.Unmarshal(v)
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

// PutVMI stores a VMI record. Like PutMaster, a rewrite that would not
// change the stored bytes is elided from the write path (and so from the
// metadata WAL) while charging the same modeled cost.
func (r *Repo) PutVMI(rec VMIRecord, m *simio.Meter) error {
	if r.readOnly {
		return fmt.Errorf("vmirepo: store VMI %q: %w", rec.Name, ErrReadOnly)
	}
	r.opMu.RLock()
	defer r.opMu.RUnlock()
	defer r.mutate(rec.BaseID, rec.Name)()
	val := []byte(rec.BaseID + "\n" + strings.Join(rec.Primaries, ","))
	r.meta().Bucket(bucketVMIs).Update([]byte(rec.Name), func(old []byte, ok bool) ([]byte, bool) {
		if ok && bytes.Equal(old, val) {
			return nil, false
		}
		return val, true
	})
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
	parts := strings.SplitN(string(val), "\n", 2)
	if len(parts) != 2 {
		return VMIRecord{}, fmt.Errorf("vmirepo: corrupt VMI record %q", name)
	}
	rec := VMIRecord{Name: name, BaseID: parts[0]}
	if parts[1] != "" {
		rec.Primaries = strings.Split(parts[1], ",")
	}
	return rec, nil
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
// class's base. A record that moved since the scan is simply left to its
// new owner.
func (r *Repo) RewireVMIs(oldBase, newBase string, m *simio.Meter) error {
	if r.readOnly {
		return fmt.Errorf("vmirepo: rewire VMIs %s -> %s: %w", oldBase, newBase, ErrReadOnly)
	}
	r.opMu.RLock()
	defer r.opMu.RUnlock()
	defer r.mutate(oldBase, newBase)()
	b := r.meta().Bucket(bucketVMIs)
	var names []string
	b.ForEach(func(k, v []byte) bool {
		parts := strings.SplitN(string(v), "\n", 2)
		if len(parts) == 2 && parts[0] == oldBase {
			names = append(names, string(k))
		}
		return true
	})
	for _, name := range names {
		b.Update([]byte(name), func(old []byte, ok bool) ([]byte, bool) {
			parts := strings.SplitN(string(old), "\n", 2)
			if !ok || len(parts) != 2 || parts[0] != oldBase {
				return nil, false
			}
			r.chargeDB(m, int64(len(old)))
			return []byte(newBase + "\n" + parts[1]), true
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

// PutUserData stores a VMI's user-data archive, replacing any previous
// archive for the name (re-publishing a VMI refreshes its user data). The
// replaced archive's blob reference is released so repeated republishes do
// not leak store space; a release failure surfaces the store
// inconsistency it indicates.
func (r *Repo) PutUserData(name string, archive []byte, m *simio.Meter) error {
	if r.readOnly {
		return fmt.Errorf("vmirepo: store user data %q: %w", name, ErrReadOnly)
	}
	r.opMu.RLock()
	defer r.opMu.RUnlock()
	r.udMu.Lock()
	defer r.udMu.Unlock()
	defer r.mutate(name)()
	b := r.meta().Bucket(bucketUserData)
	sum := blobstore.Sum(archive)
	if old, ok := b.Get([]byte(name)); ok && bytes.Equal(old, sum[:]) {
		// Identical archive for the same name: the stored blob, its single
		// reference and the record are already exactly right, so the
		// replacement is elided end to end — no blob-log or WAL traffic
		// for a republish whose user data did not change. A sticky store
		// failure still surfaces like on the write path (elision must not
		// narrow the error surface), and the modeled charge below stays,
		// like PutMaster's.
		if err := r.blobErr(); err != nil {
			return fmt.Errorf("vmirepo: store user data %q: %w", name, err)
		}
		if m != nil {
			m.Charge(simio.PhaseStore, r.dev.WriteCost(int64(len(archive))))
		}
		r.chargeDB(m, 40)
		return nil
	}
	id, _ := r.blobs.Put(archive)
	if err := r.blobErr(); err != nil {
		return fmt.Errorf("vmirepo: store user data %q: %w", name, err)
	}
	if old, ok := b.Get([]byte(name)); ok {
		// Drop the previous record's reference. When the new archive has
		// identical content this simply undoes the extra reference the Put
		// above took, leaving exactly one.
		var oldID blobstore.ID
		copy(oldID[:], old)
		if err := r.blobs.Release(oldID); err != nil {
			return fmt.Errorf("vmirepo: replace user data %q: %w", name, err)
		}
	}
	b.Put([]byte(name), id[:])
	if m != nil {
		m.Charge(simio.PhaseStore, r.dev.WriteCost(int64(len(archive))))
	}
	r.chargeDB(m, 40)
	return nil
}

// GetUserData returns the archive, or nil when the VMI stored none.
func (r *Repo) GetUserData(name string, ph simio.Phase, m *simio.Meter) ([]byte, error) {
	rc, size, err := r.OpenUserData(name, ph, m)
	if rc == nil {
		return nil, err
	}
	return readAll(rc, size, fmt.Sprintf("user data for %q", name))
}

// RemovePackage deletes a stored package record and releases its blob.
func (r *Repo) RemovePackage(ref string, m *simio.Meter) error {
	if r.readOnly {
		return fmt.Errorf("vmirepo: remove package %s: %w", ref, ErrReadOnly)
	}
	r.opMu.RLock()
	defer r.opMu.RUnlock()
	defer r.mutate()()
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

// RemoveUserData deletes a VMI's user-data archive if present.
func (r *Repo) RemoveUserData(name string, m *simio.Meter) error {
	if r.readOnly {
		return fmt.Errorf("vmirepo: remove user data %q: %w", name, ErrReadOnly)
	}
	r.opMu.RLock()
	defer r.opMu.RUnlock()
	r.udMu.Lock()
	defer r.udMu.Unlock()
	defer r.mutate(name)()
	b := r.meta().Bucket(bucketUserData)
	val, ok := b.Get([]byte(name))
	r.chargeDB(m, 0)
	if !ok {
		return nil
	}
	var id blobstore.ID
	copy(id[:], val)
	if err := r.blobs.Release(id); err != nil {
		return err
	}
	b.Delete([]byte(name))
	return nil
}

// RemoveVMI deletes a VMI record.
func (r *Repo) RemoveVMI(name string, m *simio.Meter) error {
	if r.readOnly {
		return fmt.Errorf("vmirepo: remove VMI %q: %w", name, ErrReadOnly)
	}
	r.opMu.RLock()
	defer r.opMu.RUnlock()
	defer r.mutate(name)()
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
	blobs, err := r.blobs.Snapshot()
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
	r.db.Store(db)
	r.createBuckets()
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
