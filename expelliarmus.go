// Package expelliarmus is a Go reproduction of "Semantics-aware Virtual
// Machine Image Management in IaaS Clouds" (Saurabh et al., IPDPS 2019):
// a VMI repository that models images as semantic graphs, deduplicates
// them at the level of base images and software packages, and reassembles
// VMIs on demand.
//
// This root package is the public facade. A System owns an Expelliarmus
// repository; images are built from the synthetic evaluation catalog (or
// custom package selections), published (semantic decomposition,
// Algorithm 1 + base-image selection, Algorithm 2) and retrieved or
// assembled (Algorithm 3). Baseline stores (qcow2, gzip, Mirage, Hemera,
// block-level dedup) are available for comparison, and the bench runner
// regenerates every table and figure of the paper's evaluation.
//
// Quick start:
//
//	sys := expelliarmus.New()
//	img, _ := sys.BuildImage("Redis")
//	pub, _ := sys.Publish(img)
//	fmt.Printf("similarity %.2f, repo %.2f GB\n", pub.Similarity, sys.RepoStats().TotalGB)
//	redis, ret, _ := sys.Retrieve("Redis")
package expelliarmus

import (
	"fmt"
	"io"
	"path"

	"expelliarmus/internal/api"
	"expelliarmus/internal/builder"
	"expelliarmus/internal/catalog"
	"expelliarmus/internal/chunker"
	"expelliarmus/internal/core"
	"expelliarmus/internal/pkgmgr"
	"expelliarmus/internal/simio"
	"expelliarmus/internal/stores"
	"expelliarmus/internal/vmi"
	"expelliarmus/internal/vmirepo"
	"expelliarmus/internal/wire"
)

// Options configure a System.
type Options struct {
	// NoSemanticDedup disables the repository-existence check during
	// package export (the paper's "Semantic" comparison variant).
	NoSemanticDedup bool
	// NoBaseSelection disables base-image selection (Algorithm 2).
	NoBaseSelection bool
	// CacheBytes bounds the retrieval cache: a size-bounded LRU of
	// recently assembled images, kept serialized, that serves repeat
	// Retrieve and RetrieveTo calls without re-running assembly. Zero (the
	// default) disables it. A miss serializes its image once, into the
	// entry, and a hit writes that entry to the caller as it is: RetrieveTo
	// on a hit is one copy of the cached bytes.
	// The cache changes wall-clock time only — a hit returns the same
	// image bytes and the same modeled RetrieveResult a fresh assembly
	// would — and is invalidated by per-base striped repository
	// generations: a Publish, Remove or user-data change touching an
	// entry's base image or VMI makes it unreachable, while mutations on
	// unrelated bases leave warm entries servable (package GC
	// conservatively invalidates everything). Concurrent misses of one
	// image coalesce behind a single assembly, so a retrieval storm on a
	// cold popular image runs it once. Cached entries are checksummed
	// (CRC-32C) on every hit; a corrupted entry surfaces as an error, never
	// as wrong bytes. See CacheStats for effectiveness counters.
	CacheBytes int64
	// WALCompactBytes tunes disk-backed Systems (OpenAt): the metadata
	// write-ahead log is compacted — rewritten as a fresh full snapshot
	// with an empty log — when a Sync would grow it beyond this size.
	// Zero means the default (8 MiB). Memory-backed Systems ignore it.
	// See also Compact for forcing a compaction explicitly.
	WALCompactBytes int64
	// BlobCompactDeadRatio tunes disk-backed Systems (OpenAt): a sealed
	// blob segment whose dead-byte fraction (space released blobs left
	// behind) reaches this ratio is compacted — surviving records
	// rewritten, the file retired — by the next Sync. Zero means the
	// default (0.5); negative disables the automatic trigger, leaving
	// reclamation to explicit Compact calls. Memory-backed Systems ignore
	// it (they hold no garbage).
	BlobCompactDeadRatio float64
	// TenantQuotas caps each tenant's live repository bytes. A publish
	// charged to a capped tenant (PublishOptions.Tenant) is rejected with
	// ErrQuotaExceeded before any repository graph mutation when it would
	// push the tenant's recorded usage past its cap. Tenants absent from
	// the map (or mapped to zero) are unlimited; publishes without a
	// tenant are never capped. See TenantStats for current usage.
	TenantQuotas map[string]int64
}

// System is an Expelliarmus VMI management system over an in-memory
// repository, with an image builder for the synthetic evaluation catalog.
//
// A System is safe for concurrent use: any number of goroutines may build,
// publish, retrieve, assemble and remove images (and Save snapshots)
// against the same System. Operations on the same image name should not
// overlap — concurrently removing a VMI while retrieving it can surface a
// not-found error mid-assembly — but the repository itself stays
// consistent regardless.
type System struct {
	dev *simio.Device
	sys *core.System
	b   *builder.Builder
}

// New creates a System with the paper-calibrated cost model.
func New() *System { return NewWithOptions(Options{}) }

// newDevice returns the paper-calibrated cost model scaled to the
// generated workload — the one device every System runs on.
func newDevice() *simio.Device {
	return simio.NewDevice(simio.PaperProfile().Scaled(catalog.ByteScale, catalog.FileScale))
}

// coreOptions maps the public Options onto the core's.
func coreOptions(o Options) core.Options {
	return core.Options{
		NoSemanticDedup: o.NoSemanticDedup,
		NoBaseSelection: o.NoBaseSelection,
		CacheBytes:      o.CacheBytes,
		TenantQuotas:    o.TenantQuotas,
	}
}

// ErrQuotaExceeded reports a publish rejected because it would push its
// tenant past the cap configured in Options.TenantQuotas. The repository
// graph is untouched by the rejected publish; any package or user-data
// blobs it stored ahead of the check are garbage a Vacuum reclaims.
var ErrQuotaExceeded = vmirepo.ErrQuotaExceeded

// NewWithOptions creates a System with explicit options.
func NewWithOptions(o Options) *System {
	dev := newDevice()
	return &System{
		dev: dev,
		sys: core.NewSystem(dev, coreOptions(o)),
		b:   builder.New(catalog.NewUniverse()),
	}
}

// OpenAt creates or reopens a disk-backed System rooted at path. Unlike
// New, the repository's blobs live in append-only segment files under
// path/blobs and its metadata in a snapshot + write-ahead-log pair under
// path (see internal/metawal), so the catalog can outgrow RAM and survives
// the process: reopening the same path (after a clean Close, a plain exit,
// or a crash — torn log tails are recovered and reported, see
// internal/blobstore/diskstore and internal/metawal) yields the
// repository as of everything published, plus whatever later operations
// the logs retained. Call Sync to force durability at a point in time;
// it is incremental on both the blob and the metadata side.
func OpenAt(path string, o Options) (*System, error) {
	dev := newDevice()
	repo, err := vmirepo.OpenAtOpts(path, dev, vmirepo.OpenOptions{
		WALCompactBytes:      o.WALCompactBytes,
		BlobCompactDeadRatio: o.BlobCompactDeadRatio,
	})
	if err != nil {
		return nil, err
	}
	return &System{
		dev: dev,
		sys: core.NewSystemWithRepo(repo, dev, coreOptions(o)),
		b:   builder.New(catalog.NewUniverse()),
	}, nil
}

// The result and option types below are declared once, in the leaf the
// repository's layers share (internal/api: the operation results, Stats
// and the options) or at the layer that produces them (CacheStats); the
// facade re-exports them under its own names as aliases, so the
// in-process API, the server's JSON bodies and the CLI all speak one
// vocabulary with the same field names. RepoStats alone is the facade's
// own: a paper-scale projection of Stats.
type (
	// SyncStats reports one durable save of a disk-backed System: the
	// incremental blob flush (Segments, SegmentBytes, IndexBytes — only
	// bytes appended since the previous Sync are written), the metadata
	// commit (MetaBytes, MetaOps; Compacted and MetaSnapshotBytes when the
	// WAL was rewritten into a fresh snapshot) and the blob segment
	// compaction the sync performed (SegmentsCompacted, BytesReclaimed,
	// and the DeadBytes of garbage still on disk after).
	SyncStats = api.SyncStats
	// VacuumStats reports what one Vacuum pass reclaimed.
	VacuumStats = api.VacuumStats
	// CacheStats reports the retrieval cache's effectiveness. Enabled is
	// false (and every counter zero) when the System runs without a cache
	// (Options.CacheBytes == 0).
	CacheStats = core.CacheStats
	// Stats is the repository and cache statistics report, the same value
	// a server's GET /v1/stats replies with: counts, live and on-disk
	// bytes, cache counters, tenant charges and, on a disk-backed System,
	// the replication section of a writer.
	Stats = api.Stats
	// PublishResult reports a publish operation.
	PublishResult = api.PublishResult
	// RetrieveResult reports a retrieval or assembly.
	RetrieveResult = api.RetrieveResult
	// PublishOptions carry a publish's lifecycle metadata: the Tenant
	// charged for the bytes it stores (visible in TenantStats, enforced
	// against Options.TenantQuotas; empty means unaccounted) and ExpiresAt,
	// the Unix-seconds timestamp after which ExpireAt may remove the image
	// (zero means never).
	PublishOptions = api.PublishOptions
)

// Sync makes a disk-backed System durable up to all completed operations.
// It may be called while traffic is in flight (it waits out any metadata
// commit in progress, exactly like Save) and is incremental. Systems
// created by New/NewWithOptions are memory-backed and return an error;
// use Save for those.
func (s *System) Sync() (SyncStats, error) { return s.sys.Sync() }

// Compact is Sync with forced compaction of both stores: the metadata
// write-ahead log is rewritten as a fresh full snapshot with an empty
// log (bounding reopen cost), and blob segments holding the garbage of
// released images are evacuated and deleted (bounding disk usage).
// Size-, period- and dead-ratio-triggered compactions run automatically
// inside Sync; Compact exists for operators who want to pick the moment.
// Safe under concurrent traffic, like Sync.
func (s *System) Compact() (SyncStats, error) { return s.sys.Compact() }

// Persistent reports whether the System is disk-backed (OpenAt): Sync
// and Compact commit to durable storage. Memory-backed Systems (New)
// return false — Save/Restore is their only persistence, and Sync and
// Compact return an error.
func (s *System) Persistent() bool { return s.sys.Repo().Persistent() }

// Close syncs a disk-backed System and releases its file handles; it is a
// no-op for memory-backed Systems.
func (s *System) Close() error { return s.sys.Close() }

// Image is a virtual machine image.
type Image struct {
	inner *vmi.Image
}

// Name returns the image name.
func (im *Image) Name() string { return im.inner.Name }

// Primaries returns the image's primary package set.
func (im *Image) Primaries() []string {
	return append([]string(nil), im.inner.Primaries...)
}

// ImageStats describes an image's size characteristics at paper scale.
type ImageStats struct {
	MountedGB    float64
	Files        int
	SerializedGB float64
}

// Stats mounts the image and reports its characteristics.
func (im *Image) Stats() (ImageStats, error) {
	st, err := im.inner.Stats()
	if err != nil {
		return ImageStats{}, err
	}
	return ImageStats{
		MountedGB:    paperGB(st.MountedBytes),
		Files:        catalog.PaperFiles(st.Files),
		SerializedGB: paperGB(st.SerializedBytes),
	}, nil
}

// InstalledPackages lists the packages installed in the image.
func (im *Image) InstalledPackages() ([]string, error) {
	fs, err := im.inner.Mount()
	if err != nil {
		return nil, err
	}
	mgr, err := pkgmgr.New(fs)
	if err != nil {
		return nil, err
	}
	pkgs, err := mgr.Installed()
	if err != nil {
		return nil, err
	}
	out := make([]string, len(pkgs))
	for i, p := range pkgs {
		out[i] = p.Name
	}
	return out, nil
}

// HasFile reports whether the guest filesystem contains the path.
func (im *Image) HasFile(path string) bool {
	fs, err := im.inner.Mount()
	if err != nil {
		return false
	}
	fi, err := fs.Stat(path)
	return err == nil && !fi.IsDir
}

// WriteUserFile writes a file under a user-data root inside the image
// (e.g. "/home/user/notes.txt"), simulating user activity between
// publishes.
func (im *Image) WriteUserFile(name string, data []byte) error {
	fs, err := im.inner.Mount()
	if err != nil {
		return err
	}
	if err := fs.MkdirAll(path.Dir(name)); err != nil {
		return err
	}
	return fs.WriteFile(name, data)
}

// EncodeWire writes the image in the Expelliarmus wire envelope — the
// upload format of the network repository server (cmd/expelserverd).
// The disk section streams straight from the virtual disk, so encoding
// never materializes the image in memory.
func (im *Image) EncodeWire(w io.Writer) error {
	return wire.WriteImage(w, im.inner)
}

// EncodeWireWith returns an EncodeWire-shaped encoder that carries
// lifecycle options (tenant account, expiry timestamp) in the envelope
// header — the form to hand a network client's Publish when uploading
// with a TTL or against a quota.
func (im *Image) EncodeWireWith(opts PublishOptions) func(io.Writer) error {
	return func(w io.Writer) error { return wire.WriteImageMeta(w, im.inner, opts) }
}

// Templates lists the names of the paper's 19 evaluation images in the
// Table II upload order.
func Templates() []string {
	tpls := catalog.Paper19()
	out := make([]string, len(tpls))
	for i, t := range tpls {
		out[i] = t.Name
	}
	return out
}

// BuildImage builds one of the catalog's evaluation images by name
// ("Mini", "Redis", ..., "ElasticStack").
func (s *System) BuildImage(template string) (*Image, error) {
	tpl, ok := catalog.Find(template)
	if !ok {
		return nil, fmt.Errorf("expelliarmus: unknown template %q (see Templates())", template)
	}
	img, err := s.b.Build(tpl)
	if err != nil {
		return nil, err
	}
	return &Image{inner: img}, nil
}

// BuildIDESeries builds n successive IDE images (the Fig. 3c workload).
func (s *System) BuildIDESeries(n int) ([]*Image, error) {
	out := make([]*Image, 0, n)
	for _, tpl := range catalog.IDEBuilds(n) {
		img, err := s.b.Build(tpl)
		if err != nil {
			return nil, err
		}
		out = append(out, &Image{inner: img})
	}
	return out, nil
}

// Publish decomposes and stores an image. Publishing only reads the
// caller's Image, which remains usable.
func (s *System) Publish(img *Image) (*PublishResult, error) {
	return s.PublishWith(img, PublishOptions{})
}

// PublishWith is Publish with lifecycle options: the tenant to charge
// and an optional expiry timestamp, both recorded durably with the image
// (and replicated to followers like every other mutation).
func (s *System) PublishWith(img *Image, opts PublishOptions) (*PublishResult, error) {
	rep, err := s.sys.PublishWith(img.inner, opts)
	if err != nil {
		return nil, err
	}
	return rep.Result(), nil
}

// Retrieve reassembles a published VMI by name.
func (s *System) Retrieve(name string) (*Image, *RetrieveResult, error) {
	img, rep, err := s.sys.Retrieve(name)
	if err != nil {
		return nil, nil, err
	}
	return &Image{inner: img}, rep.Result(), nil
}

// RetrieveTo reassembles a published VMI and streams its serialized
// image straight to w, returning the byte count. Unlike Retrieve, no
// in-memory Image is handed back: the bytes flow from the blob store
// through the assembly to w in bounded chunks, so peak memory does not
// grow with image size — this is the call a delivery endpoint should
// use to serve images it does not itself mutate.
func (s *System) RetrieveTo(w io.Writer, name string) (int64, *RetrieveResult, error) {
	n, rep, err := s.sys.RetrieveTo(w, name)
	if err != nil {
		return n, nil, err
	}
	return n, rep.Result(), nil
}

// Assemble builds a VMI that was never uploaded in this exact form from
// stored packages and a compatible base image. userDataFrom optionally
// names a published VMI whose user data to import.
func (s *System) Assemble(name string, primaries []string, userDataFrom string) (*Image, *RetrieveResult, error) {
	img, rep, err := s.sys.Assemble(name, primaries, userDataFrom)
	if err != nil {
		return nil, nil, err
	}
	return &Image{inner: img}, rep.Result(), nil
}

// RepoStats summarises the repository at paper scale.
type RepoStats struct {
	Packages   int
	BaseImages int
	VMIs       int
	// TotalGB is the LIVE repository size — deduplicated blob payloads
	// plus metadata, the quantity the paper's growth figures plot. It is
	// not disk usage: on a disk-backed System, released images leave
	// garbage in segment files until compaction reclaims it.
	TotalGB float64
	// DiskGB is the physical blob bytes on disk (live records, dead
	// records awaiting compaction, and retiring files pinned by open
	// readers), at the same paper scale as TotalGB. Zero on memory-backed
	// Systems, where live is physical.
	DiskGB float64
	// DeadGB is the reclaimable portion of DiskGB — what a Compact would
	// free (modulo segments below the dead-ratio threshold).
	DeadGB float64
}

// Stats returns the repository and cache statistics report.
func (s *System) Stats() Stats { return s.sys.Stats() }

// RepoStats returns current repository statistics: the paper-scale
// projection of Stats.
func (s *System) RepoStats() RepoStats {
	st := s.Stats()
	return RepoStats{
		Packages:   st.Packages,
		BaseImages: st.Bases,
		VMIs:       st.VMIs,
		TotalGB:    paperGB(st.TotalBytes),
		DiskGB:     paperGB(st.DiskBytes),
		DeadGB:     paperGB(st.DeadBytes),
	}
}

// paperGB converts a store-scaled byte count to paper-scale gigabytes.
func paperGB(b int64) float64 { return float64(catalog.Paper(b)) / 1e9 }

// MasterGraphDOT renders the repository's master graphs in Graphviz DOT
// format for inspection.
func (s *System) MasterGraphDOT() (string, error) { return s.sys.MasterDOT() }

// Remove deletes a published VMI, garbage-collecting packages, user data
// and base images no remaining VMI references.
func (s *System) Remove(name string) error { return s.sys.Remove(name) }

// ExpireAt removes every published VMI whose PublishOptions.ExpiresAt
// timestamp is at or before now (Unix seconds), returning the names
// removed. Each expiry runs the ordinary Remove transaction — packages,
// user data, base images and quota charges are reclaimed exactly as an
// operator removal would. Callers typically drive this from a ticker
// (see cmd/expelserverd's -expire-interval).
func (s *System) ExpireAt(now int64) ([]string, error) { return s.sys.ExpireAt(now) }

// Vacuum reclaims everything dangling in the repository: packages no VMI
// references, user-data archives and lifecycle records of VMIs that no
// longer exist, stale tenant accounting, and blobs no metadata record
// references — the orphans crash recovery deliberately resurrects and
// the leftovers of abandoned publishes. On a disk-backed System it then
// compacts both stores so the reclaimed bytes leave the disk. Safe under
// concurrent traffic (it runs as one repository transaction).
func (s *System) Vacuum() (VacuumStats, error) { return s.sys.Vacuum() }

// TenantStats returns each tenant's recorded live bytes — what publishes
// charged (stored package, base and user-data bytes) minus what removals
// and expiries credited back. Tenants with zero usage are absent.
func (s *System) TenantStats() map[string]int64 { return s.sys.TenantStats() }

// Save serialises the repository (blobs and metadata) for durable storage.
// Save may be called while other operations are in flight: it waits out
// any metadata commit in progress, and the captured state is
// transactionally consistent — every VMI it records is retrievable after
// Restore. On a disk-backed System, a blob the store can no longer read
// faithfully (post-hoc disk damage) surfaces as an error here rather than
// as a corrupt snapshot.
func (s *System) Save() ([]byte, error) { return s.sys.Snapshot() }

// Restore creates a System over a previously saved repository image.
func Restore(snapshot []byte, o Options) (*System, error) {
	dev := newDevice()
	repo, err := vmirepo.Load(snapshot, dev)
	if err != nil {
		return nil, err
	}
	return &System{
		dev: dev,
		sys: core.NewSystemWithRepo(repo, dev, coreOptions(o)),
		b:   builder.New(catalog.NewUniverse()),
	}, nil
}

// CacheStats returns current retrieval-cache counters.
func (s *System) CacheStats() CacheStats {
	st, _ := s.sys.CacheStats()
	return st
}

// BaselineKind selects a comparison storage scheme.
type BaselineKind string

// Available baseline schemes (the paper's comparison systems plus the
// block-level dedup baseline from its related work).
const (
	BaselineQcow2      BaselineKind = "qcow2"
	BaselineGzip       BaselineKind = "qcow2+gzip"
	BaselineMirage     BaselineKind = "mirage"
	BaselineHemera     BaselineKind = "hemera"
	BaselineBlockFixed BaselineKind = "block-fixed"
	BaselineBlockRabin BaselineKind = "block-rabin"
)

// Baseline is a comparison VMI store.
type Baseline struct {
	store stores.Store
}

// NewBaseline creates a fresh baseline store of the given kind.
func (s *System) NewBaseline(kind BaselineKind) (*Baseline, error) {
	switch kind {
	case BaselineQcow2:
		return &Baseline{stores.NewQcow2(s.dev)}, nil
	case BaselineGzip:
		return &Baseline{stores.NewGzip(s.dev)}, nil
	case BaselineMirage:
		return &Baseline{stores.NewMirage(s.dev)}, nil
	case BaselineHemera:
		return &Baseline{stores.NewHemera(s.dev)}, nil
	case BaselineBlockFixed:
		return &Baseline{stores.NewBlockDedup(s.dev, chunker.NewFixed(catalog.ClusterSize))}, nil
	case BaselineBlockRabin:
		return &Baseline{stores.NewBlockDedup(s.dev, chunker.NewRabin(1024))}, nil
	default:
		return nil, fmt.Errorf("expelliarmus: unknown baseline %q", kind)
	}
}

// Name returns the scheme name.
func (b *Baseline) Name() string { return b.store.Name() }

// Publish stores the image and returns the modeled publish seconds.
func (b *Baseline) Publish(img *Image) (float64, error) {
	st, err := b.store.Publish(img.inner)
	if err != nil {
		return 0, err
	}
	return st.Seconds, nil
}

// Retrieve reconstructs a stored image and returns the modeled seconds.
func (b *Baseline) Retrieve(name string) (*Image, float64, error) {
	img, st, err := b.store.Retrieve(name)
	if err != nil {
		return nil, 0, err
	}
	return &Image{inner: img}, st.Seconds, nil
}

// SizeGB returns the repository footprint at paper scale.
func (b *Baseline) SizeGB() float64 { return paperGB(b.store.SizeBytes()) }
