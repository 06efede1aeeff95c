// Package core implements the Expelliarmus system of Sec. IV: the semantic
// analyzer, the VMI decomposer (publishing, Algorithm 1), base-image
// selection (Algorithm 2) and the VMI assembler (retrieval, Algorithm 3),
// orchestrated over the repository of Fig. 2.
package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"path"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"expelliarmus/internal/api"
	"expelliarmus/internal/blobstore"
	"expelliarmus/internal/catalog"
	"expelliarmus/internal/fstree"
	"expelliarmus/internal/master"
	"expelliarmus/internal/pkgfmt"
	"expelliarmus/internal/pkgmeta"
	"expelliarmus/internal/pkgmgr"
	"expelliarmus/internal/retrievecache"
	"expelliarmus/internal/semgraph"
	"expelliarmus/internal/similarity"
	"expelliarmus/internal/simio"
	"expelliarmus/internal/vdisk"
	"expelliarmus/internal/vmi"
	"expelliarmus/internal/vmirepo"
)

// Options configure the system. The zero value enables the full design;
// the flags exist for the paper's "semantic decomposition" variant
// (Fig. 4b) and the ablation studies (`expelbench -exp abl1,...,abl4`).
type Options struct {
	// NoSemanticDedup disables the repository-existence check during
	// export: every required package is repacked and stored, as in the
	// paper's "Semantic" comparison variant.
	NoSemanticDedup bool
	// NoBaseSelection disables Algorithm 2: every published VMI stores its
	// own base image (ablation A3).
	NoBaseSelection bool
	// CacheBytes bounds the retrieval cache: an LRU of recently assembled
	// images keyed by (base image, primary set, user-data source, striped
	// repository generation) that serves repeat retrievals without
	// re-running Algorithm 3. Zero (the default) disables caching. The
	// cache is transparent at the cost-model level — a hit replays the
	// cold retrieval's modeled charges exactly — and invalidation is by
	// per-base striped generation: a publish, removal or user-data
	// replacement touching the entry's base image or VMI name moves
	// lookups to fresh keys, so a cached image is never served after its
	// constituent packages change, while mutations on unrelated bases
	// leave warm entries servable. Concurrent misses of one key coalesce
	// behind a single assembly (miss singleflight).
	CacheBytes int64
	// TenantQuotas caps each tenant's live bytes (newly stored package,
	// base and user-data bytes attributed to its publishes). A publish
	// that would push its tenant past the cap is rejected with
	// vmirepo.ErrQuotaExceeded before any master-graph mutation. Absent
	// or zero entries mean unlimited; the empty tenant is never capped.
	TenantQuotas map[string]int64
}

// System is the Expelliarmus VMI management system. One System may serve
// many goroutines: publishes, retrievals, assemblies and removals can all
// run concurrently against the shared repository, while each operation
// runs sequentially on its caller's goroutine.
//
// The concurrency design splits each operation into a data plane
// (repacking, hashing and storing package blobs — the dominant cost) and a
// serialized metadata commit (base-image selection, master-graph update,
// VMI record). The commit locks serialise only the commits, striped by
// base-attribute quadruple; package export from different publishes
// proceeds in parallel, coordinated by the repository's atomic
// EnsurePackage. The pin set bridges the gap between a publish observing a
// package in the repository and its VMI record landing: Remove never
// garbage-collects a pinned package, which closes the classic
// check-then-commit race between concurrent publish and remove.
//
// Readers take no commit lock. A retrieval or assembly resolves its
// record, master graph and blobs under the repository's view lock
// (vmirepo.ReadView), which every commit holds exclusively around its
// metadata writes, so it assembles one committed state.
type System struct {
	repo *vmirepo.Repo
	dev  *simio.Device
	opts Options

	// cache is the retrieval cache (nil when Options.CacheBytes is zero);
	// see cache.go for the hit/insert protocol. flights coalesces
	// concurrent misses of one key behind a single assembly, cctr tracks
	// the coalescing and per-stripe counters.
	cache   *retrievecache.Cache
	flights flightGroup
	cctr    cacheCounters
	// memo keeps the digest of every image an assembly owed one, by
	// recipe, so an image is hashed once per recipe, not once per
	// generation.
	memo *digestMemo
	// bases keeps each recently read base blob copied, launched and reset
	// (Algorithm 3 lines 3–4), so a retrieval does that once per blob.
	bases *baseMemo
	// packages keeps each recently installed package blob extracted
	// (Algorithm 3 lines 11–13), so a retrieval decodes it once per blob.
	packages *pkgMemo

	// commitMu stripes the multi-step metadata transactions by
	// base-attribute quadruple: the tail of Publish (Algorithm 2 +
	// master-graph update + VMI record) only ever reads and writes bases
	// whose attributes match its own exactly (SimBI = 1 requires an equal
	// quadruple), so publishes clustering on unrelated attribute classes
	// commit in parallel. Attribute classes hash onto stripes with
	// vmirepo.ClassStripe; two classes sharing a stripe merely serialise
	// their commits. Vacuum, Snapshot, Sync and Close span classes and take
	// every stripe.
	commitMu [vmirepo.ClassStripes]sync.Mutex

	// pinMu guards pinned: package refs required by in-flight publishes
	// whose VMI records have not committed yet, counted per publish.
	pinMu  sync.Mutex
	pinned map[string]int
}

// lockCommits locks the given commit stripes in index order, or every
// stripe when none is given, and returns the unlock.
func (s *System) lockCommits(stripes ...int) func() {
	return vmirepo.LockStripes(&s.commitMu, stripes...)
}

// lockRecordClass locks the commit stripes of a transaction on the record
// called name: the given stripes (a publish's own class) plus the stripe of
// the record's current class, where the transaction retires the record
// (retire). The class is resolved under the view lock, where a
// record and its base always agree, and validated once the stripes are
// held; a record that moved to another base in between is settled by
// taking every stripe instead. It returns the stripes held (none meaning
// all) and the unlock; the caller reads the record under them.
func (s *System) lockRecordClass(name string, stripes ...int) ([]int, func()) {
	unview := s.repo.ReadView()
	rec, err := s.repo.GetVMI(name, nil)
	if err == nil {
		if binfo, berr := s.repo.BaseInfo(rec.BaseID); berr == nil {
			stripes = append(stripes, vmirepo.ClassStripe(binfo.Attrs))
		}
	}
	unview()
	unlock := s.lockCommits(stripes...)
	if now, nerr := s.repo.GetVMI(name, nil); (nerr == nil) == (err == nil) && now.BaseID == rec.BaseID {
		return stripes, unlock
	}
	unlock()
	return nil, s.lockCommits()
}

// NewSystem creates a system over a fresh repository.
func NewSystem(dev *simio.Device, opts Options) *System {
	return NewSystemWithRepo(vmirepo.New(dev), dev, opts)
}

// pinPackage marks ref as required by an in-flight publish so concurrent
// removals cannot garbage-collect it before the publish commits.
func (s *System) pinPackage(ref string) {
	s.pinMu.Lock()
	s.pinned[ref]++
	s.pinMu.Unlock()
}

// unpinPackages drops the pins a publish took, after its commit (or on
// failure).
func (s *System) unpinPackages(refs []string) {
	s.pinMu.Lock()
	for _, ref := range refs {
		if s.pinned[ref] <= 1 {
			delete(s.pinned, ref)
		} else {
			s.pinned[ref]--
		}
	}
	s.pinMu.Unlock()
}

// removePackageUnlessPinned garbage-collects a package unless an in-flight
// publish holds it, reporting whether it was removed. The pin check and
// the removal are atomic under pinMu: a publish pins before its existence
// check, so either the pin lands first (the package survives) or the
// removal lands first (the publish observes the package as absent and
// re-exports it).
func (s *System) removePackageUnlessPinned(ref string) (bool, error) {
	s.pinMu.Lock()
	defer s.pinMu.Unlock()
	if s.pinned[ref] > 0 {
		return false, nil
	}
	if err := s.repo.RemovePackage(ref, nil); err != nil {
		return false, err
	}
	return true, nil
}

// Repo exposes the underlying repository.
func (s *System) Repo() *vmirepo.Repo { return s.repo }

// PublishReport describes one publish operation.
type PublishReport struct {
	Image string
	// Similarity is SimG between the uploaded VMI's semantic graph and the
	// best-matching master graph (0 when the repository holds none with
	// matching base attributes) — Table II's "Similarity [SimG]".
	Similarity float64
	// Exported lists the packages repacked and stored (non-redundant).
	Exported []string
	// ExportedBytes is their total installed size (paper scale).
	ExportedBytes int64
	// Skipped counts packages already present in the repository.
	Skipped int
	// BaseStored reports whether this publish stored a new base image.
	BaseStored bool
	// BaseID is the base image the VMI was clustered on.
	BaseID string
	// ReplacedBases lists base images removed by Algorithm 2.
	ReplacedBases []string
	// Meter holds the publish cost decomposition.
	Meter *simio.Meter
}

// Seconds returns the total modeled publish time.
func (r *PublishReport) Seconds() float64 { return r.Meter.Seconds() }

// Result flattens the report into the body the server replies with and
// the facade returns.
func (r *PublishReport) Result() *api.PublishResult {
	return &api.PublishResult{
		Similarity: r.Similarity,
		Exported:   append([]string(nil), r.Exported...),
		Skipped:    r.Skipped,
		BaseStored: r.BaseStored,
		Seconds:    r.Seconds(),
		Phases:     r.Meter.PhaseSeconds(),
	}
}

// PublishOpts carry a publish's lifecycle attributes: the tenant charged
// for its newly stored bytes and the Unix-seconds expiry timestamp.
type PublishOpts = api.PublishOptions

// ErrPrimaryNotInstalled marks a publish that names a primary package its
// image does not have installed. It is refused before any repository
// write.
var ErrPrimaryNotInstalled = api.ErrPrimaryNotInstalled

// Publish runs the semantic analyzer and the decomposer on the image
// (Algorithm 1). Publish never writes img: the package sets come from the
// image's package index, and the base image, when one is stored, is
// stripped on a clone of its disk. The caller may keep using the image,
// and concurrent publishes may share it. Nothing reads img's disk once
// Publish has returned, on any path, so a caller may then release what
// backs it.
func (s *System) Publish(img *vmi.Image) (*PublishReport, error) {
	return s.PublishWith(img, PublishOpts{})
}

// PublishWith is Publish with explicit lifecycle attributes (tenant and
// expiry). Package export runs unlocked. The commit holds the commit
// stripes of the image's attribute class and of the record it replaces;
// under them the bytes are written first (the user-data archive, then the
// base image, stripped on a clone, if one must be stored), and the metadata
// writes follow inside a view window (vmirepo.WriteView). A concurrent
// reader therefore sees the previous version whole or this one whole, and a
// publish rejected before the window, over quota say, leaves the live
// record as it was. The record
// a publish replaces is retired in the window exactly as Remove retires
// one: what only it used is collected, and its master is rebuilt or, when
// no record is left on its base, removed with the base.
func (s *System) PublishWith(img *vmi.Image, popts PublishOpts) (*PublishReport, error) {
	// Refuse up front on followers: publishing does expensive semantic
	// analysis before its first repository write, and failing at the
	// commit tail would waste all of it.
	if s.repo.ReadOnly() {
		return nil, fmt.Errorf("core: publish %s: %w", img.Name, vmirepo.ErrReadOnly)
	}
	rep := &PublishReport{Image: img.Name, Meter: &simio.Meter{}}

	// Step 2 (Fig. 2): guestfs access and semantic analysis.
	rep.Meter.Charge(simio.PhaseLaunch, s.dev.LaunchCost())
	fs, err := launch(img.Disk)
	if err != nil {
		return nil, fmt.Errorf("core: publish %s: %w", img.Name, err)
	}
	mgr, err := pkgmgr.Load(fs)
	if err != nil {
		return nil, err
	}
	installed, err := mgr.Installed()
	if err != nil {
		return nil, err
	}
	for _, p := range img.Primaries {
		// The VMI record joins primaries with ",", so such a name would
		// read back as two packages the image does not have.
		if strings.Contains(p, ",") {
			return nil, fmt.Errorf("core: publish %s: primary %q holds a \",\": %w", img.Name, p, ErrPrimaryNotInstalled)
		}
		if !mgr.IsInstalled(p) {
			return nil, fmt.Errorf("core: publish %s: primary %q: %w", img.Name, p, ErrPrimaryNotInstalled)
		}
	}
	g := semgraph.Build(img.Base, installed, img.Primaries)
	rep.Meter.Charge(simio.PhaseSimilarity, s.dev.SimilarityCost(g.Len()))
	if rep.Similarity, err = s.bestSimilarity(g); err != nil {
		return nil, fmt.Errorf("core: publish %s: %w", img.Name, err)
	}

	// Algorithm 1 line 1: extract the primary package subgraph.
	ps := g.PrimarySubgraph()

	// Lines 2–5: store non-redundant primary-subgraph packages, in vertex
	// order. Essential packages stay with the base image and are never
	// exported. Every required ref is pinned (before its existence check)
	// until the VMI record commits, so a concurrent Remove cannot collect
	// it in between. storedBytes accumulates what this publish newly
	// stored — the tenant charge recorded in the VMI's lifecycle record at
	// commit.
	var (
		pinRefs     []string
		storedBytes int64
	)
	defer func() { s.unpinPackages(pinRefs) }()
	for _, v := range ps.Vertices() {
		if v.Pkg.Essential {
			continue
		}
		ref := v.Pkg.Ref()
		s.pinPackage(ref)
		pinRefs = append(pinRefs, ref)
		if !s.opts.NoSemanticDedup && s.repo.HasPackage(ref, rep.Meter) {
			rep.Skipped++
			continue
		}
		blob, err := mgr.Repack(v.Pkg.Name)
		if err != nil {
			return nil, fmt.Errorf("core: publish %s: %w", img.Name, err)
		}
		rep.Meter.Charge(simio.PhaseExport,
			s.dev.RepackCost(catalog.Real(v.Pkg.InstalledSize), 1))
		if s.opts.NoSemanticDedup && s.repo.HasPackage(ref, rep.Meter) {
			// The variant still repacks (paying the cost) but cannot store
			// the same ref twice.
			rep.Skipped++
			continue
		}
		stored, err := s.repo.EnsurePackage(v.Pkg, blob, rep.Meter)
		if err != nil {
			return nil, err
		}
		if !stored {
			// A concurrent publish stored the same ref first; equivalent
			// to having observed it via the dedup check.
			rep.Skipped++
			continue
		}
		rep.Exported = append(rep.Exported, v.Pkg.Name)
		rep.ExportedBytes += v.Pkg.InstalledSize
		storedBytes += int64(len(blob))
	}

	// Line 6: export the user data. The archive is stored under the commit
	// lock and its record replaced in the view window, with the VMI record.
	userFiles, err := collectUserData(fs)
	if err != nil {
		return nil, err
	}
	var archive []byte
	if len(userFiles) > 0 {
		if archive, err = pkgfmt.PackTar(userFiles); err != nil {
			return nil, err
		}
		rep.Meter.Charge(simio.PhaseExport, s.dev.ReadCost(int64(len(archive))))
		storedBytes += int64(len(archive))
	}

	// Lines 7–12: removing the primaries, their unused dependencies and the
	// user data leaves the base image BI. Its package set comes from the
	// index; the guest itself is stripped only if BI is stored (stripBase).
	// Removing files costs a per-file unlink, not a full open/read cycle.
	remaining, gone := mgr.Remaining(img.Primaries)
	removed, err := removedFiles(fs, mgr, gone, userFiles)
	if err != nil {
		return nil, fmt.Errorf("core: publish %s: %w", img.Name, err)
	}
	rep.Meter.Charge(simio.PhaseCleanup, s.dev.ResetCost(removed))

	// Line 13: the base image subgraph.
	baseSub := semgraph.Build(img.Base, remaining, nil)
	baseID := s.baseIdentity(img, baseSub)

	// Lines 14–29 are the metadata commit: base-image selection reads the
	// repository state of this base-attribute class and the master-graph
	// update is a read-modify-write, so the whole transaction is
	// serialized against other commits of the same class (and against
	// Remove's same-class removals and Snapshot/Sync, which take every
	// stripe). Commits on unrelated attribute classes proceed in parallel.
	// A republish additionally holds the stripe of the class the old
	// record belongs to, so retiring that record cannot race a removal of
	// the same record.
	stripes, unlock := s.lockRecordClass(img.Name, vmirepo.ClassStripe(img.Base))
	defer unlock()

	// Capture the record this publish replaces (if any) and its package
	// refs before any graph mutation invalidates the master it was
	// clustered on; its lifecycle record feeds the quota gate.
	var (
		oldRefs []string
		oldMeta vmirepo.VMIMeta
		hadMeta bool
	)
	oldRec, err := s.repo.GetVMI(img.Name, nil)
	hadOld := err == nil
	if hadOld {
		if oldRefs, err = s.vmiPackageRefs(oldRec); err != nil {
			return nil, fmt.Errorf("core: publish %s: survey replaced record: %w", img.Name, err)
		}
		if oldMeta, hadMeta, err = s.repo.GetVMIMeta(img.Name, rep.Meter); err != nil {
			return nil, err
		}
	}

	// Line 14: base image selection (Algorithm 2).
	selected, replaceList, err := s.selectBaseImage(baseID, baseSub, ps, rep.Meter)
	if err != nil {
		return nil, err
	}
	rep.BaseID = selected

	// Quota gate: enforced after the selection decision (so the charge is
	// exact) and before this commit stores anything, crediting the record
	// this publish replaces. A rejected publish leaves only the packages it
	// exported, which the next Vacuum reclaims; the live record and its
	// user data are untouched.
	willStoreBase := selected == baseID && !s.repo.HasBase(selected, rep.Meter)
	charge := storedBytes
	var (
		base      *vdisk.Disk
		baseBytes int64
	)
	if willStoreBase {
		if base, err = stripBase(img, gone); err != nil {
			return nil, fmt.Errorf("core: publish %s: %w", img.Name, err)
		}
		baseBytes = base.SerializedBytes()
		charge += baseBytes
	}
	if quota := s.opts.TenantQuotas[popts.Tenant]; popts.Tenant != "" && quota > 0 {
		usage := s.repo.TenantUsage(popts.Tenant)
		if hadMeta && oldMeta.Tenant == popts.Tenant {
			usage -= oldMeta.ChargedBytes
		}
		if usage+charge > quota {
			return nil, fmt.Errorf("core: publish %s: tenant %q needs %d of %d quota bytes: %w",
				img.Name, popts.Tenant, usage+charge, quota, vmirepo.ErrQuotaExceeded)
		}
	}

	// Store the user-data archive (line 6). No reader sees it before the
	// view window below points the record at it; a publish that fails
	// first releases it.
	var staged *blobstore.ID
	if archive != nil {
		id, err := s.repo.StageUserData(archive, rep.Meter)
		if err != nil {
			return nil, err
		}
		staged = &id
		defer func() {
			if staged != nil {
				// The publish is already failing with its own error; a
				// release that fails too leaves a stray reference that
				// only costs space.
				_ = s.repo.ReleaseStaged(*staged)
			}
		}()
	}
	if willStoreBase {
		// Lines 15–16: store this base image. The serialization streams
		// straight into the blob store through a pipe — the decomposed base
		// is never materialized as one buffer, so publish memory stays
		// bounded by the clusters the image already holds. SerializedBytes
		// prices the read (and pins the expected stream length) without
		// producing a byte. A new base is invisible to readers until a
		// master graph names it, so the stream runs outside the view window.
		rep.Meter.Charge(simio.PhaseScan, s.dev.ReadCost(baseBytes))
		pr, pw := io.Pipe()
		written := make(chan struct{})
		go func() {
			defer close(written)
			_, werr := base.WriteTo(pw)
			pw.CloseWithError(werr)
		}()
		err := s.repo.PutBaseReader(baseID, img.Base, pr, baseBytes, rep.Meter)
		// Closing the read side unblocks the writer goroutine on every
		// early-return path (e.g. a store failing after part of the
		// stream); after a complete consume it is a no-op. The writer may
		// still be inside a lazy read of the image's disk, so the publish
		// waits for it: nothing may read the image once it has returned.
		pr.Close()
		<-written
		base.Release()
		if err != nil {
			return nil, err
		}
	}

	// The view window: every write a reader can observe, from here to the
	// lifecycle records, lands while no reader is resolving.
	defer s.repo.WriteView(stripes...)()
	var mg *master.Graph
	if willStoreBase {
		// Line 17: the new base's master graph.
		mg = master.New(baseID, baseSub)
		rep.BaseStored = true
	} else {
		// Line 19: reuse the stored base image's master graph (either a
		// different selected base, or a stored base with the same semantic
		// identity as the decomposed one). The stored graph is shared with
		// readers, so the commit mutates a copy.
		stored, err := s.repo.GetMaster(selected, rep.Meter)
		if err != nil {
			return nil, err
		}
		mg = stored.Clone()
	}
	// Line 21: cluster this VMI's primary subgraph.
	if err := mg.AddPrimarySubgraph(ps); err != nil {
		return nil, err
	}
	// Lines 22–28: fold in and remove replaced base images.
	for _, b := range replaceList {
		if b == baseID || b == selected {
			continue
		}
		other, err := s.repo.GetMaster(b, rep.Meter)
		if err != nil {
			return nil, err
		}
		if err := mg.Merge(other); err != nil {
			return nil, err
		}
		if err := s.repo.RemoveBase(b, rep.Meter); err != nil {
			return nil, err
		}
		if err := s.repo.RemoveMaster(b, rep.Meter); err != nil {
			return nil, err
		}
		// VMIs clustered on the replaced base are now served by the
		// selected one (their packages were merged into its master).
		if err := s.repo.RewireVMIs(b, selected, rep.Meter); err != nil {
			return nil, err
		}
		if b == oldRec.BaseID {
			// The replaced record moved with them, so it retires from there.
			oldRec.BaseID = selected
		}
		rep.ReplacedBases = append(rep.ReplacedBases, b)
	}
	// Line 29: update the master graph.
	if err := s.repo.PutMaster(mg, rep.Meter); err != nil {
		return nil, err
	}

	newRec := vmirepo.VMIRecord{
		Name:      img.Name,
		BaseID:    selected,
		Primaries: append([]string(nil), img.Primaries...),
	}
	if err := s.repo.PutVMI(newRec, rep.Meter); err != nil {
		return nil, err
	}
	// The user-data record follows the VMI record: it names this publish's
	// archive, or is deleted when the image has no user data.
	ud := staged
	staged = nil // the record takes the staged reference
	if err := s.repo.SetUserData(img.Name, ud, rep.Meter); err != nil {
		return nil, err
	}

	// Lifecycle commit, in the same lock window as the record it
	// describes. The new record's refs are added before the replaced
	// record retires exactly as Remove retires one, so a shared ref never
	// transits zero (the pins cover the new record's refs).
	newRefs, err := s.vmiPackageRefs(newRec)
	if err != nil {
		return nil, fmt.Errorf("core: publish %s: survey committed record: %w", img.Name, err)
	}
	if err := s.repo.AddPackageRefs(newRefs, rep.Meter); err != nil {
		return nil, err
	}
	if hadOld {
		if err := s.retire(oldRec, oldRefs, rep.Meter); err != nil {
			return nil, err
		}
	}
	if popts.Tenant != "" || popts.ExpiresAt != 0 {
		if err := s.repo.PutVMIMeta(img.Name, vmirepo.VMIMeta{
			Tenant: popts.Tenant, ExpiresAt: popts.ExpiresAt, ChargedBytes: charge,
		}, rep.Meter); err != nil {
			return nil, err
		}
		if err := s.repo.ChargeTenant(popts.Tenant, charge, rep.Meter); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// removedFiles counts, without removing anything, the regular files that
// Algorithm 1 lines 7–11 remove from fs: the user files, and for each
// package in gone every existing file it owns plus its file list.
func removedFiles(fs *fstree.FS, mgr *pkgmgr.Manager, gone []string, userFiles []pkgfmt.File) (int, error) {
	counted := make(map[string]bool, len(userFiles))
	for _, f := range userFiles {
		counted[f.Path] = true
	}
	var owned []string
	for _, name := range gone {
		files, err := mgr.OwnedFiles(name)
		if err != nil {
			return 0, err
		}
		for _, f := range files {
			if !counted[f] {
				counted[f] = true
				owned = append(owned, f)
			}
		}
	}
	return len(userFiles) + len(gone) + fs.CountFiles(owned), nil
}

// stripBase runs Algorithm 1 lines 7–11 on a clone of img's disk: it
// removes the packages in gone, Remaining's removal list, in its order and
// then the user data, and returns the clone, which holds the base image
// BI. Cloning a lazily decoded disk shares its source, so the strip copies
// only the clusters it rewrites.
func stripBase(img *vmi.Image, gone []string) (*vdisk.Disk, error) {
	disk := img.Disk.Clone(img.Name)
	fs, err := fstree.Mount(disk)
	if err != nil {
		return nil, err
	}
	mgr, err := pkgmgr.New(fs)
	if err != nil {
		return nil, err
	}
	for _, name := range gone {
		if err := mgr.Remove(name); err != nil {
			return nil, err
		}
	}
	for _, root := range vmi.UserDataRoots {
		if err := fs.RemoveAll(root); err != nil {
			return nil, err
		}
	}
	return disk, nil
}

// launch mounts disk's guest filesystem as libguestfs does once it has
// configured and launched its appliance. Callers charge simio.PhaseLaunch
// (a visible part of publish and retrieval times in Fig. 5a).
func launch(disk *vdisk.Disk) (*fstree.FS, error) {
	fs, err := fstree.Mount(disk)
	if err != nil {
		return nil, fmt.Errorf("launch: %w", err)
	}
	return fs, nil
}

// bestSimilarity compares the uploaded graph against the master graphs
// sharing its base attributes and returns the highest SimG. Only those
// masters are read, and one that fails to decode is an error rather than a
// similarity of 0. A base without a master — one a concurrent publish is
// storing or replacing between the listing and the read — is skipped.
func (s *System) bestSimilarity(g *semgraph.Graph) (float64, error) {
	bases, err := s.repo.Bases()
	if err != nil {
		return 0, err
	}
	best := 0.0
	for _, b := range bases {
		if b.Attrs != g.Base() {
			continue
		}
		m, err := s.repo.GetMaster(b.ID, nil)
		if errors.Is(err, vmirepo.ErrNotFound) {
			continue
		}
		if err != nil {
			return 0, err
		}
		if sim := m.Similarity(g); sim > best {
			best = sim
		}
	}
	return best, nil
}

// baseIdentity derives the identity of a decomposed base image: the hash
// of its attribute quadruple and package refs. Two bases with identical
// semantics share an identity even when their bytes differ (instance
// churn), which is precisely the paper's semantic dedup of base images.
// With base selection disabled every image keeps a distinct base identity.
func (s *System) baseIdentity(img *vmi.Image, baseSub *semgraph.Graph) string {
	hsh := sha256.New()
	hsh.Write([]byte(img.Base.String()))
	for _, v := range baseSub.Vertices() {
		hsh.Write([]byte(v.Pkg.Ref()))
		hsh.Write([]byte{0})
	}
	if s.opts.NoBaseSelection {
		hsh.Write([]byte("image:" + img.Name))
	}
	return "base-" + hex.EncodeToString(hsh.Sum(nil))[:16]
}

// selectBaseImage implements Algorithm 2. It returns the ID of the base
// image to cluster on (baseID itself when the new base must be stored) and
// the list of stored base IDs it replaces.
func (s *System) selectBaseImage(baseID string, baseSub, ps *semgraph.Graph, m *simio.Meter) (string, []string, error) {
	if s.opts.NoBaseSelection {
		return baseID, nil, nil
	}
	// Line 1: the candidate list starts with the new base image.
	list3 := []*candidate{{id: baseID, baseSub: baseSub, psList: []*semgraph.Graph{ps}}}

	// Lines 3–12: add stored base images with simBI = 1; their master
	// graphs' subgraphs are extracted when first compared.
	bases, err := s.repo.Bases()
	if err != nil {
		return "", nil, err
	}
	for _, b := range bases {
		if similarity.SimBI(baseSub.Base(), b.Attrs) != 1 {
			continue
		}
		mg, err := s.repo.GetMaster(b.ID, m)
		if err != nil {
			return "", nil, err
		}
		list3 = append(list3, &candidate{id: b.ID, mg: mg})
	}

	// Lines 13–26: build the quadruple list.
	type quad struct {
		id          string
		replaceList []string
		size        int64
		isNew       bool
	}
	var list4 []quad
	for i, ei := range list3 {
		var replace []string
		for j, ej := range list3 {
			if i == j || ei.id == ej.id {
				continue
			}
			if err := ei.extract(); err != nil {
				return "", nil, err
			}
			if err := ej.extract(); err != nil {
				return "", nil, err
			}
			compatible := true
			for _, psj := range ej.psList {
				if !similarity.Compatible(ei.baseSub, psj) {
					compatible = false
					break
				}
			}
			if compatible {
				replace = append(replace, ej.id)
			}
		}
		if len(replace) == 0 {
			continue
		}
		sort.Strings(replace)
		list4 = append(list4, quad{
			id:          ei.id,
			replaceList: replace,
			size:        ei.baseSub.TotalSize(),
			isNew:       ei.id == baseID,
		})
	}

	// Line 27: sort by replace-list size (desc), base size (asc), and
	// prefer bases already in the repository (no unnecessary storage).
	sort.Slice(list4, func(a, b int) bool {
		qa, qb := list4[a], list4[b]
		if len(qa.replaceList) != len(qb.replaceList) {
			return len(qa.replaceList) > len(qb.replaceList)
		}
		if qa.size != qb.size {
			return qa.size < qb.size
		}
		if qa.isNew != qb.isNew {
			return !qa.isNew // existing base first
		}
		return qa.id < qb.id
	})

	// Lines 28–32: pick the first quadruple involving the new base.
	for _, q := range list4 {
		if q.id == baseID {
			return q.id, q.replaceList, nil
		}
		for _, r := range q.replaceList {
			if r == baseID {
				return q.id, q.replaceList, nil
			}
		}
	}
	// Line 33: no candidate — store the new base.
	return baseID, nil, nil
}

// candidate is one base image of Algorithm 2's list: the new base, or a
// stored one whose base and primary subgraphs come from its master graph.
// Those are extracted only when the candidate is first compared with one of
// another ID; equal-ID pairs are never compared, so a class holding only
// the new base's stored twin extracts nothing.
type candidate struct {
	id      string
	mg      *master.Graph // the master still to extract; nil once extracted
	baseSub *semgraph.Graph
	psList  []*semgraph.Graph
}

func (c *candidate) extract() error {
	if c.mg == nil {
		return nil
	}
	c.baseSub = c.mg.BaseSubgraph()
	for _, p := range c.mg.PrimaryNames() {
		sub, err := c.mg.PrimarySubgraph(p)
		if err != nil {
			return err
		}
		c.psList = append(c.psList, sub)
	}
	c.mg = nil
	return nil
}

// collectUserData gathers all files under the user-data roots.
func collectUserData(fs *fstree.FS) ([]pkgfmt.File, error) {
	var out []pkgfmt.File
	for _, root := range vmi.UserDataRoots {
		if !fs.Exists(root) {
			continue
		}
		err := fs.Walk(root, func(fi fstree.FileInfo) error {
			if fi.IsDir {
				return nil
			}
			data, err := fs.ReadFile(fi.Path)
			if err != nil {
				return err
			}
			out = append(out, pkgfmt.File{Path: fi.Path, Data: data})
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RetrieveReport describes one retrieval operation.
type RetrieveReport struct {
	Image string
	// Imported lists the installed packages.
	Imported []string
	// ImportedBytes is their total installed size (paper scale).
	ImportedBytes int64
	// Meter decomposes the retrieval cost into the Fig. 5a phases.
	Meter *simio.Meter

	// base and primaries are the header of the image the operation wrote,
	// for Retrieve and Assemble to rebuild it from the stream.
	base      pkgmeta.BaseAttrs
	primaries []string
}

// Seconds returns the total modeled retrieval time.
func (r *RetrieveReport) Seconds() float64 { return r.Meter.Seconds() }

// Result flattens the report into the retrieve trailer's body, which the
// facade returns too.
func (r *RetrieveReport) Result() *api.RetrieveResult {
	return &api.RetrieveResult{
		Imported: append([]string(nil), r.Imported...),
		Seconds:  r.Seconds(),
		Phases:   r.Meter.PhaseSeconds(),
	}
}

// Retrieve assembles a previously published VMI by name (Algorithm 3)
// and hands it back decoded: a materializing adapter over RetrieveTo,
// which writes the serialized image once — from the assembly, or as a
// copy of its retrieval-cache entry — into a buffer that Retrieve
// decodes into an image independent of the blob store and of the cache.
// The report is RetrieveTo's.
func (s *System) Retrieve(name string) (*vmi.Image, *RetrieveReport, error) {
	var buf bytes.Buffer
	_, rep, err := s.RetrieveTo(&buf, name)
	if err != nil {
		return nil, nil, err
	}
	return decodeImage(name, buf.Bytes(), rep)
}

// decodeImage rebuilds the image a streaming call wrote from its bytes
// and the header its report carries. The bytes are the caller's own
// buffer, so the disk decodes lazily over them instead of copying every
// cluster out; writes go to its copy-on-write layer.
func decodeImage(name string, image []byte, rep *RetrieveReport) (*vmi.Image, *RetrieveReport, error) {
	disk, err := vdisk.DeserializeLazy(name, bytes.NewReader(image), int64(len(image)))
	if err != nil {
		return nil, nil, fmt.Errorf("core: %s: decode image: %w", name, err)
	}
	return &vmi.Image{Name: name, Base: rep.base, Primaries: rep.primaries, Disk: disk}, rep, nil
}

// RetrieveTo assembles a published VMI and streams its serialized image
// straight to w, returning the byte count. Without the retrieval cache
// the bytes pass through the same lazy backing the assembly read them
// from, so peak memory stays bounded by the clusters the assembly
// actually touched plus the streaming chunk — it does not grow with
// image size.
//
// The retrieval resolves under the repository's view lock: the record, its
// master graph and every blob it imports come from one committed state,
// and the blobs are opened before the lock drops, so a publish, removal or
// base replacement that commits while the image assembles changes nothing
// in it. The key (base, primaries, user-data source and striped
// generation) is taken under the same lock and names exactly that state.
// A hit of the retrieval cache writes the entry's image to w
// (checksum-verified, modeled charges replayed). Concurrent misses of one
// key coalesce behind one assembly, the miss singleflight, whose image or
// error every follower shares; leadAssembly decides what is inserted.
//
// When w is a DigestWriter it is given the image's SHA-256 after the last
// byte: a cached image's, taken when its entry was built, or, for an image
// streamed straight from the assembly, the digest memo's for its recipe.
// Only the first assembly of a recipe hashes the image, whatever its
// generation or VMI name; a repeat checks a CRC-32C against the memo and
// fails, after its last byte, if the image differs.
func (s *System) RetrieveTo(w io.Writer, name string) (int64, *RetrieveReport, error) {
	rep := &RetrieveReport{Image: name, Meter: &simio.Meter{}}
	start := time.Now()
	unview := sync.OnceFunc(s.repo.ReadView())
	defer unview()
	rec, err := s.repo.GetVMI(name, rep.Meter)
	if err != nil {
		return 0, nil, err
	}
	if s.cache == nil {
		rep.Meter.Lap(simio.PhaseDB, start)
		src, err := s.open(name, rec.BaseID, rec.Primaries, name, rep)
		unview()
		if err != nil {
			return 0, nil, err
		}
		return s.assemble(src, rep, func(*vdisk.Disk) io.Writer { return s.digestTo(w, src) })
	}
	key := retrievecache.NewKey(rec.BaseID, rec.Primaries, name, s.repo.GenerationFor(rec.BaseID, name))
	ent, err := s.cache.Get(key)
	if err != nil {
		return 0, nil, fmt.Errorf("core: retrieve %s: %w", name, err)
	}
	if ent != nil {
		unview()
		s.cctr.hits[vmirepo.StripeFor(rec.BaseID)].Add(1)
		return serveEntry(w, rec, ent)
	}
	fl, leader := s.flights.join(key)
	if !leader {
		unview()
		<-fl.done
		if fl.err != nil {
			return 0, nil, fl.err
		}
		s.cctr.coalesced.Add(1)
		return serveEntry(w, rec, fl.ent)
	}
	rep.Meter.Lap(simio.PhaseDB, start)
	return s.leadAssembly(w, key, rec, rep, fl, unview)
}

// Assemble builds a VMI that was never uploaded in this exact form: any
// primary package combination available in the repository, on a compatible
// stored base image ("VMI assembly either with identical or with differing
// functionality", Sec. IV-D). userDataFrom optionally names a published
// VMI whose user data to import. It is AssembleTo into a buffer, decoded
// like Retrieve.
func (s *System) Assemble(name string, primaries []string, userDataFrom string) (*vmi.Image, *RetrieveReport, error) {
	var buf bytes.Buffer
	_, rep, err := s.AssembleTo(&buf, name, primaries, userDataFrom)
	if err != nil {
		return nil, nil, err
	}
	return decodeImage(name, buf.Bytes(), rep)
}

// AssembleTo is Assemble streaming the serialized image straight to w,
// like RetrieveTo: no in-memory image is handed back and peak memory does
// not grow with image size. It assembles on the first base, by ID, whose
// master graph provides every requested primary. Like RetrieveTo it picks
// that master and opens the base, package and user-data blobs under the
// view lock, so they come from one committed state. A DigestWriter w is
// given the SHA-256 of the image through the digest memo, like
// RetrieveTo's: an assembly whose recipe a retrieval or an earlier
// assembly already hashed tees only a CRC-32C.
func (s *System) AssembleTo(w io.Writer, name string, primaries []string, userDataFrom string) (int64, *RetrieveReport, error) {
	rep := &RetrieveReport{Image: name, Meter: &simio.Meter{}}
	unview := sync.OnceFunc(s.repo.ReadView())
	defer unview()
	masters, err := s.repo.Masters()
	if err != nil {
		return 0, nil, err
	}
	i := slices.IndexFunc(masters, func(mg *master.Graph) bool { return hasAll(mg.PrimaryNames(), primaries) })
	if i < 0 {
		return 0, nil, fmt.Errorf("core: no stored base provides packages %v", primaries)
	}
	src, err := s.open(name, masters[i].BaseID, primaries, userDataFrom, rep)
	unview()
	if err != nil {
		return 0, nil, err
	}
	return s.assemble(src, rep, func(*vdisk.Disk) io.Writer { return s.digestTo(w, src) })
}

func hasAll(have []string, want []string) bool {
	set := make(map[string]bool, len(have))
	for _, h := range have {
		set[h] = true
	}
	for _, w := range want {
		if !set[w] {
			return false
		}
	}
	return true
}

// localRepoDir is the temporary in-guest package repository used during
// assembly (Sec. V-4).
const localRepoDir = "/var/local-repo"

// sources are everything one assembly reads from the repository: the
// subgraphs and install order of Algorithm 3 lines 1–2 and 6–10, and an
// open reader over every blob it imports. open resolves them under the
// view lock, so they come from one committed state; a reader stays
// readable after the lock drops, even if a later mutation releases its
// blob.
type sources struct {
	name      string
	primaries []string
	attrs     pkgmeta.BaseAttrs
	baseSub   *semgraph.Graph
	psUnion   *semgraph.Graph
	order     [][]string
	base      blob
	userData  blob   // rc nil when the source VMI has none
	pkgs      []blob // one per install-order entry, in order
}

// blob is one open repository blob.
type blob struct {
	rc   io.ReadCloser
	size int64
	id   blobstore.ID // its content address
}

// read reads the whole blob into buf, grown to hold it, and returns it.
func (b blob) read(buf []byte) ([]byte, error) {
	buf = slices.Grow(buf[:0], int(b.size))[:b.size]
	_, err := io.ReadFull(b.rc, buf)
	return buf, err
}

func (src *sources) close() {
	for _, b := range append([]blob{src.base, src.userData}, src.pkgs...) {
		if b.rc != nil {
			b.rc.Close()
		}
	}
}

// open resolves the sources of an assembly of primaries on baseID with
// userDataFrom's user data ("" for none), charging every repository read
// to rep; the caller holds the view lock.
func (s *System) open(name, baseID string, primaries []string, userDataFrom string, rep *RetrieveReport) (_ *sources, err error) {
	start := time.Now()
	// Line 1: subgraphs from the repository.
	mg, err := s.repo.GetMaster(baseID, rep.Meter)
	if err != nil {
		return nil, err
	}
	src := &sources{name: name, primaries: primaries, attrs: mg.Attrs(), baseSub: mg.BaseSubgraph(), psUnion: semgraph.New(mg.Attrs())}
	for _, p := range primaries {
		sub, err := mg.PrimarySubgraph(p)
		if err != nil {
			return nil, fmt.Errorf("core: assemble %s: %w", name, err)
		}
		src.psUnion.Union(sub)
	}
	// Line 2: compatibility check.
	if !similarity.Compatible(src.baseSub, src.psUnion) {
		return nil, fmt.Errorf("core: assemble %s: primary packages incompatible with base %s", name, baseID)
	}
	// Lines 6–10: packages in the primary subgraph missing from the base,
	// and their install order.
	var missing []string
	for _, v := range src.psUnion.Vertices() {
		if !src.baseSub.HasVertex(v.Pkg.Name) {
			missing = append(missing, v.Pkg.Name)
		}
	}
	if src.order, err = pkgmgr.InstallOrder(graphUniverse{src.psUnion}, missing); err != nil {
		return nil, err
	}
	start = rep.Meter.Lap(simio.PhaseDB, start)

	defer func() {
		if err != nil {
			src.close()
		}
	}()
	if src.base.id, src.base.rc, src.base.size, err = s.repo.OpenBase(baseID, simio.PhaseCopy, rep.Meter); err != nil {
		return nil, err
	}
	if userDataFrom != "" {
		if src.userData.id, src.userData.rc, src.userData.size, err = s.repo.OpenUserData(userDataFrom, simio.PhaseImport, rep.Meter); err != nil {
			return nil, err
		}
	}
	// Every package in the install order is fetched and charged, including
	// one an earlier group already installed: the modeled import cost
	// counts each fetch.
	for _, group := range src.order {
		for _, pkgName := range group {
			v, _ := src.psUnion.Vertex(pkgName)
			rec, rc, size, err := s.repo.OpenPackage(v.Pkg.Ref(), simio.PhaseImport, rep.Meter)
			if err != nil {
				return nil, err
			}
			src.pkgs = append(src.pkgs, blob{rc, size, rec.BlobID})
		}
	}
	rep.Meter.Lap(simio.PhaseCopy, start)
	return src, nil
}

// baseMemoSlots sizes the base memo: a base blob whose slot another blob
// took runs lines 3–4 again on its next retrieval. The catalog's images
// share one base blob; the bulk_stream benchmark cycles through five.
const baseMemoSlots = 8

// baseMemo keeps, per base blob, what Algorithm 3 lines 3–4 make of it.
// Those lines read nothing but the blob, whose ID is its content's SHA-256,
// so a base replaced under its ID has a new blob ID and no entry is ever
// invalidated.
type baseMemo = slotMemo[blobstore.ID, resetBase]

// resetBase is one base memo entry: the reset base, whose disk is a
// template holding no reader, its filesystem and package database, and the
// regular files the reset scanned.
type resetBase struct {
	disk  *vdisk.Disk
	fs    *fstree.FS
	db    pkgmgr.DB
	files int
}

// resetBase runs Algorithm 3 lines 3–4 on the base blob b: it copies the
// base lazily over b's own reader, so base clusters the assembly never
// touches are never read, launches the appliance and resets the guest. It
// returns the copy, its filesystem and its package database, cloned from
// the base memo on a hit; the charges are the same either way.
func (s *System) resetBase(name string, b blob, m *simio.Meter) (*vdisk.Disk, *fstree.FS, pkgmgr.DB, error) {
	ra, ok := b.rc.(io.ReaderAt)
	if !ok {
		return nil, nil, pkgmgr.DB{}, fmt.Errorf("base reader %T is not an io.ReaderAt", b.rc)
	}
	m.Charge(simio.PhaseLaunch, s.dev.LaunchCost())
	start := time.Now()
	if e := s.bases.get(b.id); e != nil {
		m.Charge(simio.PhaseReset, s.dev.ResetCost(e.val.files))
		disk := e.val.disk.CloneOver(name, ra)
		start = m.Lap(simio.PhaseLaunch, start)
		fs := e.val.fs.CloneOnto(disk) // the reset's result
		m.Lap(simio.PhaseReset, start)
		return disk, fs, e.val.db, nil
	}
	disk, err := vdisk.DeserializeLazy(name, ra, b.size)
	if err != nil {
		return nil, nil, pkgmgr.DB{}, err
	}
	fs, err := launch(disk)
	if err != nil {
		return nil, nil, pkgmgr.DB{}, err
	}
	start = m.Lap(simio.PhaseLaunch, start)
	// virt-sysprep scans every file, then clears the reset paths.
	files := fs.NumFiles()
	m.Charge(simio.PhaseReset, s.dev.ResetCost(files))
	for _, p := range vmi.SysprepPaths {
		if err := fs.RemoveAll(p); err != nil {
			return nil, nil, pkgmgr.DB{}, fmt.Errorf("sysprep %s: %w", p, err)
		}
	}
	db, err := pkgmgr.ReadDB(fs)
	if err != nil {
		return nil, nil, pkgmgr.DB{}, err
	}
	tmpl := disk.CloneOver(name, nil)
	s.bases.put(b.id, resetBase{tmpl, fs.CloneOnto(tmpl), db, files})
	m.Lap(simio.PhaseReset, start)
	return disk, fs, db, nil
}

// pkgMemoSlots sizes the package memo: a package blob whose slot another
// blob took is extracted again on its next install. The catalog holds
// about 150 package blobs, of which 4096 slots leave about 3 % sharing one.
const pkgMemoSlots = 4096

// pkgMemoBudget bounds the bytes the package memo's entries hold. A
// package that would take the memo past it is installed unmemoized. The
// catalog's decoded packages take about 2 MB; at 64 times its size they
// would take about 130 MB.
const pkgMemoBudget = 64 << 20

// pkgMemo keeps, per package blob, what pkgfmt.Extract makes of it. The
// blob ID is the blob content's SHA-256, so a package replaced under its
// ref has a new blob ID and no entry is ever invalidated.
type pkgMemo = slotMemo[blobstore.ID, extracted]

// extracted is one package memo entry, shared read-only by every install
// of its blob: InstallPackage clones the package and fstree copies the
// file data into clusters.
type extracted struct {
	pkg   pkgmeta.Package
	files []pkgfmt.File
}

// weight is the heap the entry's paths and file data hold.
func (x extracted) weight() int64 {
	var n int64
	for _, f := range x.files {
		n += int64(len(f.Path) + cap(f.Data))
	}
	return n
}

// extract decodes the package blob deb, whose content address is id, once
// per blob: a hit returns the package memo's entry, a miss runs
// pkgfmt.Extract and stores what it returns.
func (s *System) extract(id blobstore.ID, deb []byte) (extracted, error) {
	if e := s.packages.get(id); e != nil {
		return e.val, nil
	}
	p, files, err := pkgfmt.Extract(deb)
	if err != nil {
		return extracted{}, err
	}
	x := extracted{p, files}
	s.packages.putWeighed(id, x, x.weight())
	return x, nil
}

// assemble implements Algorithm 3 over sources open resolved, with no lock
// held, and writes the serialized result to the writer sink picks for the
// finished disk, returning the bytes written and, on success, rep. A sink
// that is a digestTee is settled after the last byte. The disk reads untouched
// base clusters lazily through the base blob's reader; assemble closes
// every source before it returns, so nothing lazily backed outlives the
// call, and releases the disk, whose arena chunks go back to the pool.
func (s *System) assemble(src *sources, rep *RetrieveReport, sink func(*vdisk.Disk) io.Writer) (int64, *RetrieveReport, error) {
	defer src.close()
	name := src.name
	// Lines 3–4: copy the base image and reset it, once per base blob.
	disk, fs, db, err := s.resetBase(name, src.base, rep.Meter)
	if err != nil {
		return 0, nil, fmt.Errorf("core: assemble %s: %w", name, err)
	}
	defer disk.Release()
	start := time.Now()

	// Line 5: import the user data.
	if src.userData.rc != nil {
		archive, err := src.userData.read(nil)
		if err != nil {
			return 0, nil, fmt.Errorf("core: assemble %s: read user data: %w", name, err)
		}
		files, err := pkgfmt.UnpackTar(archive)
		if err != nil {
			return 0, nil, err
		}
		for _, f := range files {
			if err := fs.MkdirAll(path.Dir(f.Path)); err != nil {
				return 0, nil, err
			}
			if err := fs.WriteFile(f.Path, f.Data); err != nil {
				return 0, nil, err
			}
		}
	}

	// Lines 11–13: import and install through the guest package manager
	// from a temporary local repository. User data live under
	// vmi.UserDataRoots, so the status database is still the reset's.
	mgr, err := pkgmgr.NewFrom(fs, db)
	if err != nil {
		return 0, nil, err
	}
	if err := fs.MkdirAll(localRepoDir); err != nil {
		return 0, nil, err
	}
	if err := fs.MkdirAll("/etc/apt/sources.list.d"); err != nil {
		return 0, nil, err
	}
	if err := fs.WriteFile("/etc/apt/sources.list.d/local.list",
		[]byte("deb [trusted=yes] file:"+localRepoDir+" ./\n")); err != nil {
		return 0, nil, err
	}
	// Every package blob is read into one buffer, made for the largest: the
	// guest copies what is written to it and pkgfmt.Extract keeps none of
	// its input.
	var largest int64
	for _, b := range src.pkgs {
		largest = max(largest, b.size)
	}
	pkgs, deb := src.pkgs, make([]byte, 0, largest)
	for _, group := range src.order {
		for _, pkgName := range group {
			v, _ := src.psUnion.Vertex(pkgName)
			b := pkgs[0]
			pkgs = pkgs[1:]
			deb, err = b.read(deb)
			if err != nil {
				return 0, nil, fmt.Errorf("core: assemble %s: read package %s: %w", name, v.Pkg.Ref(), err)
			}
			local := path.Join(localRepoDir, pkgName+".deb")
			if err := fs.WriteFile(local, deb); err != nil {
				return 0, nil, err
			}
			if mgr.IsInstalled(pkgName) {
				// Already present (e.g. imported by an earlier group).
				if err := fs.Remove(local); err != nil {
					return 0, nil, err
				}
				continue
			}
			x, err := s.extract(b.id, deb)
			if err != nil {
				return 0, nil, err
			}
			if err := mgr.InstallPackage(x.pkg, x.files); err != nil {
				return 0, nil, err
			}
			rep.Meter.Charge(simio.PhaseImport,
				s.dev.InstallCost(catalog.Real(v.Pkg.InstalledSize), 1))
			rep.Imported = append(rep.Imported, pkgName)
			rep.ImportedBytes += v.Pkg.InstalledSize
			if err := fs.Remove(local); err != nil {
				return 0, nil, err
			}
		}
	}
	// Restore the default repository configuration (Sec. V-4).
	if err := fs.RemoveAll(localRepoDir); err != nil {
		return 0, nil, err
	}
	if err := fs.Remove("/etc/apt/sources.list.d/local.list"); err != nil {
		return 0, nil, err
	}
	start = rep.Meter.Lap(simio.PhaseImport, start)

	rep.base, rep.primaries = src.attrs, append([]string(nil), src.primaries...)
	out := sink(disk)
	n, err := disk.WriteTo(out)
	if t, ok := out.(*digestTee); ok && err == nil {
		err = t.settle()
	}
	if err != nil {
		return n, nil, fmt.Errorf("core: assemble %s: stream image: %w", name, err)
	}
	rep.Meter.Lap(simio.PhaseCopy, start)
	return n, rep, nil
}

// graphUniverse adapts a semantic graph to the resolver's Universe.
type graphUniverse struct{ g *semgraph.Graph }

func (u graphUniverse) Lookup(name string) (pkgmeta.Package, bool) {
	v, ok := u.g.Vertex(name)
	return v.Pkg, ok
}

// MasterDOT renders every stored master graph in Graphviz DOT format —
// the semantic-graph visualisation of Fig. 1a for the live repository.
func (s *System) MasterDOT() (string, error) {
	masters, err := s.repo.Masters()
	if err != nil {
		return "", err
	}
	var out string
	for _, mg := range masters {
		out += mg.G.DOT("master_" + mg.BaseID)
	}
	return out, nil
}
