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
	"sort"
	"sync"

	"expelliarmus/internal/api"
	"expelliarmus/internal/catalog"
	"expelliarmus/internal/fstree"
	"expelliarmus/internal/guestfs"
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

	// commitMu stripes the multi-step metadata transactions by
	// base-attribute quadruple: the tail of Publish (Algorithm 2 +
	// master-graph update + VMI record) only ever reads and writes bases
	// whose attributes match its own exactly (SimBI = 1 requires an equal
	// quadruple), so publishes clustering on unrelated attribute classes
	// commit in parallel. Remove, Snapshot, Sync and Close span classes
	// and take every stripe (lockAllCommits).
	commitMu [commitStripes]sync.Mutex

	// pinMu guards pinned: package refs required by in-flight publishes
	// whose VMI records have not committed yet, counted per publish. It
	// also guards udPinned: VMI names whose user-data archive an in-flight
	// publish stored before taking its commit lock — Vacuum must not
	// collect those archives as orphans.
	pinMu    sync.Mutex
	pinned   map[string]int
	udPinned map[string]int
}

// commitStripes is the number of commit-lock stripes. Attribute classes
// hash onto stripes; two classes sharing a stripe merely serialise their
// commits (safe), never corrupt each other.
const commitStripes = 16

// commitStripe hashes a base-attribute quadruple onto a commit-lock
// stripe. The reduction happens over the full hash width, so the
// distribution is uniform regardless of how commitStripes relates to the
// generation stripe count.
func commitStripe(attrs pkgmeta.BaseAttrs) int {
	return int(vmirepo.HashKey(attrs.String()) % commitStripes)
}

// lockCommit locks the commit stripe of one base-attribute quadruple and
// returns the unlock. A publish's whole commit transaction interacts only
// with bases of its exact quadruple (Algorithm 2 filters candidates by
// SimBI = 1, and VersionSim returns 1 only on equal version strings), so
// one stripe suffices.
func (s *System) lockCommit(attrs pkgmeta.BaseAttrs) func() {
	mu := &s.commitMu[commitStripe(attrs)]
	mu.Lock()
	return mu.Unlock
}

// lockAllCommits locks every commit stripe in index order (deadlock-free
// against single-stripe holders) and returns the unlock — for
// transactions whose read set spans attribute classes: Remove's
// live-reference survey, Snapshot, Sync and Close.
func (s *System) lockAllCommits() func() {
	for i := range s.commitMu {
		s.commitMu[i].Lock()
	}
	return func() {
		for i := range s.commitMu {
			s.commitMu[i].Unlock()
		}
	}
}

// lockStripes locks up to two commit stripes in index order (deadlock-free
// against lockAllCommits and single-stripe holders) and returns the
// unlock.
func (s *System) lockStripes(a, b int) func() {
	if a > b {
		a, b = b, a
	}
	s.commitMu[a].Lock()
	if b != a {
		s.commitMu[b].Lock()
	}
	return func() {
		if b != a {
			s.commitMu[b].Unlock()
		}
		s.commitMu[a].Unlock()
	}
}

// lockCommitForPublish locks the commit stripes a publish of name under
// attrs needs: the publish's own class stripe plus, when a record of the
// same name already exists, the stripe of that record's class — a
// republish credits the old record's refcounts and tenant charge, which
// must not race a removal of it. The record's class is resolved outside
// the locks and re-validated under them; a record that moved between
// classes retries, and one whose class cannot be resolved (its base
// mid-replacement) falls back to every stripe.
func (s *System) lockCommitForPublish(attrs pkgmeta.BaseAttrs, name string) func() {
	newStripe := commitStripe(attrs)
	stripeOf := func(baseID string) (int, bool) {
		binfo, err := s.repo.BaseInfo(baseID)
		if err != nil {
			return 0, false
		}
		return commitStripe(binfo.Attrs), true
	}
	for attempt := 0; attempt < 4; attempt++ {
		oldStripe := newStripe
		if rec, err := s.repo.GetVMI(name, nil); err == nil {
			st, ok := stripeOf(rec.BaseID)
			if !ok {
				break // unresolvable class: all-stripes fallback
			}
			oldStripe = st
		}
		unlock := s.lockStripes(newStripe, oldStripe)
		rec, err := s.repo.GetVMI(name, nil)
		if err != nil {
			return unlock // no old record: surplus stripe is harmless
		}
		if st, ok := stripeOf(rec.BaseID); ok && (st == oldStripe || st == newStripe) {
			return unlock
		}
		unlock()
	}
	return s.lockAllCommits()
}

// NewSystem creates a system over a fresh repository.
func NewSystem(dev *simio.Device, opts Options) *System {
	return &System{repo: vmirepo.New(dev), dev: dev, opts: opts, cache: newCache(opts), pinned: make(map[string]int), udPinned: make(map[string]int)}
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

// pinUserData marks name's user-data archive as owned by an in-flight
// publish (stored before the commit lock), so Vacuum cannot collect it
// as an orphan; unpinUserData drops the pin after the commit (or on
// failure).
func (s *System) pinUserData(name string) {
	s.pinMu.Lock()
	s.udPinned[name]++
	s.pinMu.Unlock()
}

func (s *System) unpinUserData(name string) {
	s.pinMu.Lock()
	if s.udPinned[name] <= 1 {
		delete(s.udPinned, name)
	} else {
		s.udPinned[name]--
	}
	s.pinMu.Unlock()
}

func (s *System) userDataPinned(name string) bool {
	s.pinMu.Lock()
	defer s.pinMu.Unlock()
	return s.udPinned[name] > 0
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
		Phases:     phaseMap(r.Meter),
	}
}

func phaseMap(m *simio.Meter) map[string]float64 {
	out := map[string]float64{}
	for ph, d := range m.Snapshot() {
		out[string(ph)] = d.Seconds()
	}
	return out
}

// PublishOpts carry a publish's lifecycle attributes: the tenant charged
// for its newly stored bytes and the Unix-seconds expiry timestamp.
type PublishOpts = api.PublishOptions

// Publish runs the semantic analyzer and the decomposer on the image
// (Algorithm 1). Publishing consumes the image: its primary packages,
// unused dependencies and user data are removed in place. Callers that
// need the image afterwards must Clone it first.
func (s *System) Publish(img *vmi.Image) (*PublishReport, error) {
	return s.PublishWith(img, PublishOpts{})
}

// PublishWith is Publish with explicit lifecycle attributes (tenant and
// expiry).
func (s *System) PublishWith(img *vmi.Image, popts PublishOpts) (*PublishReport, error) {
	// Refuse up front on followers: publishing does expensive semantic
	// analysis before its first repository write, and failing at the
	// commit tail would waste all of it.
	if s.repo.ReadOnly() {
		return nil, fmt.Errorf("core: publish %s: %w", img.Name, vmirepo.ErrReadOnly)
	}
	rep := &PublishReport{Image: img.Name, Meter: &simio.Meter{}}

	// Step 2 (Fig. 2): guestfs access and semantic analysis.
	h := guestfs.New(img.Disk, s.dev, rep.Meter)
	if err := h.Launch(); err != nil {
		return nil, fmt.Errorf("core: publish %s: %w", img.Name, err)
	}
	fs, _ := h.FS()
	mgr, err := h.PackageManager()
	if err != nil {
		return nil, err
	}
	installed, err := mgr.Installed()
	if err != nil {
		return nil, err
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

	// Line 6: store the user data. The archive lands before the commit
	// lock, so it is pinned until the VMI record commits — a concurrent
	// Vacuum must not collect it as an orphan in between.
	userFiles, err := collectUserData(fs)
	if err != nil {
		return nil, err
	}
	s.pinUserData(img.Name)
	defer s.unpinUserData(img.Name)
	if len(userFiles) > 0 {
		archive, err := pkgfmt.PackTar(userFiles)
		if err != nil {
			return nil, err
		}
		rep.Meter.Charge(simio.PhaseExport, s.dev.ReadCost(int64(len(archive))))
		if err := s.repo.PutUserData(img.Name, archive, rep.Meter); err != nil {
			return nil, err
		}
		storedBytes += int64(len(archive))
	}

	// Lines 7–11: remove primaries, unused dependencies and user data,
	// leaving only the base image BI (line 12).
	filesBefore := fs.NumFiles()
	for _, p := range img.Primaries {
		if mgr.IsInstalled(p) {
			if err := mgr.Remove(p); err != nil {
				return nil, fmt.Errorf("core: publish %s: %w", img.Name, err)
			}
		}
	}
	if _, err := mgr.Autoremove(nil); err != nil {
		return nil, err
	}
	for _, root := range vmi.UserDataRoots {
		if err := fs.RemoveAll(root); err != nil {
			return nil, err
		}
	}
	// Removing files costs a per-file unlink, not a full open/read cycle.
	rep.Meter.Charge(simio.PhaseCleanup, s.dev.ResetCost(filesBefore-fs.NumFiles()))

	// Line 13: the base image subgraph.
	remaining, err := mgr.Installed()
	if err != nil {
		return nil, err
	}
	baseSub := semgraph.Build(img.Base, remaining, nil)
	baseID := s.baseIdentity(img, baseSub)

	// Lines 14–29 are the metadata commit: base-image selection reads the
	// repository state of this base-attribute class and the master-graph
	// update is a read-modify-write, so the whole transaction is
	// serialized against other commits of the same class (and against
	// Remove's same-class removals and Snapshot/Sync, which take every
	// stripe). Commits on unrelated attribute classes proceed in parallel.
	// A republish additionally holds the stripe of the class the old
	// record belongs to, so crediting that record's refcounts and tenant
	// charge cannot race a removal processing the same record.
	defer s.lockCommitForPublish(img.Base, img.Name)()

	// Capture what the record this publish replaces (if any) contributed,
	// before any graph mutation invalidates the master it was clustered
	// on: its package refs, its attribute class, and its tenant charge.
	var (
		hadOld   bool
		oldClass string
		oldRefs  []string
		oldMeta  vmirepo.VMIMeta
		hadMeta  bool
	)
	if oldRec, err := s.repo.GetVMI(img.Name, nil); err == nil {
		hadOld = true
		binfo, err := s.repo.BaseInfo(oldRec.BaseID)
		if err != nil {
			return nil, fmt.Errorf("core: publish %s: resolve replaced record: %w", img.Name, err)
		}
		oldClass = binfo.Attrs.String()
		refs, err := s.vmiPackageRefs(oldRec)
		if err != nil {
			return nil, fmt.Errorf("core: publish %s: survey replaced record: %w", img.Name, err)
		}
		for ref := range refs {
			oldRefs = append(oldRefs, ref)
		}
		sort.Strings(oldRefs)
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
	// exact) and before the first master-graph mutation, crediting the
	// record this publish replaces. A rejected publish leaves only
	// orphan-side state behind — pre-commit packages and user data that
	// the next Vacuum reclaims — never a half-committed graph.
	willStoreBase := selected == baseID && !s.repo.HasBase(selected, rep.Meter)
	charge := storedBytes
	if willStoreBase {
		charge += img.Disk.SerializedBytes()
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

	var mg *master.Graph
	if willStoreBase {
		// Lines 15–17: store this base image and create its master graph.
		// The serialization streams straight into the blob store through a
		// pipe — the decomposed base is never materialized as one buffer,
		// so publish memory stays bounded by the clusters the image already
		// holds. SerializedBytes prices the read (and pins the expected
		// stream length) without producing a byte.
		size := img.Disk.SerializedBytes()
		rep.Meter.Charge(simio.PhaseScan, s.dev.ReadCost(size))
		pr, pw := io.Pipe()
		go func() {
			_, werr := img.Disk.WriteTo(pw)
			pw.CloseWithError(werr)
		}()
		err := s.repo.PutBaseReader(baseID, img.Base, pr, size, rep.Meter)
		// Closing the read side unblocks the writer goroutine on every
		// early-return path (e.g. a store fast-failing before consuming
		// the stream); after a complete consume it is a no-op.
		pr.Close()
		if err != nil {
			return nil, err
		}
		mg = master.New(baseID, baseSub)
		rep.BaseStored = true
	} else {
		// Line 19: reuse the stored base image's master graph (either a
		// different selected base, or a stored base with the same semantic
		// identity as the decomposed one).
		mg, err = s.repo.GetMaster(selected, rep.Meter)
		if err != nil {
			return nil, err
		}
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

	// Lifecycle commit, in the same lock window as the record it
	// describes. Refs are added before the replaced record's are dropped,
	// so a shared ref never transits zero; packages only the replaced
	// record needed are collected here (the pins cover the new record's).
	newRefSet, err := s.vmiPackageRefs(newRec)
	if err != nil {
		return nil, fmt.Errorf("core: publish %s: survey committed record: %w", img.Name, err)
	}
	newRefs := make([]string, 0, len(newRefSet))
	for ref := range newRefSet {
		newRefs = append(newRefs, ref)
	}
	sort.Strings(newRefs)
	if err := s.repo.AddPackageRefs(img.Base.String(), newRefs, rep.Meter); err != nil {
		return nil, err
	}
	if hadOld {
		dead, err := s.repo.DropPackageRefs(oldClass, oldRefs, rep.Meter)
		if err != nil {
			return nil, err
		}
		for _, ref := range dead {
			if _, err := s.removePackageUnlessPinned(ref); err != nil {
				return nil, err
			}
		}
	}
	if hadMeta {
		if err := s.repo.ChargeTenant(oldMeta.Tenant, -oldMeta.ChargedBytes, rep.Meter); err != nil {
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
	} else if hadMeta {
		if err := s.repo.RemoveVMIMeta(img.Name, rep.Meter); err != nil {
			return nil, err
		}
	}
	h.Close()
	return rep, nil
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
	type entry struct {
		id      string
		baseSub *semgraph.Graph
		psList  []*semgraph.Graph
	}
	// Line 1: the candidate list starts with the new base image.
	list3 := []entry{{id: baseID, baseSub: baseSub, psList: []*semgraph.Graph{ps}}}

	// Lines 3–12: add stored base images with simBI = 1 and their master
	// graphs' primary subgraphs.
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
		e := entry{id: b.ID, baseSub: mg.BaseSubgraph()}
		for _, p := range mg.PrimaryNames() {
			sub, err := mg.PrimarySubgraph(p)
			if err != nil {
				return "", nil, err
			}
			e.psList = append(e.psList, sub)
		}
		list3 = append(list3, e)
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
		Phases:   phaseMap(r.Meter),
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
// Under concurrent publish traffic, base-image selection may replace the
// VMI's base between the record read and the master/base reads (the
// record is atomically rewired to the surviving base). RetrieveTo absorbs
// that window by re-reading the record and retrying — as long as no byte
// has reached w; each attempt starts a fresh meter, so the report
// reflects exactly one assembly. The striped repository generation of
// the VMI's base image and name is captured right after the record read;
// an assembly that fails after it moved is retried, not reported. When
// the retrieval cache is enabled, a hit under that generation writes the
// entry's image to w (checksum-verified, modeled charges replayed, and
// handed over with its insert-time SHA-256 when w is a DigestWriter),
// concurrent misses of the same key coalesce behind one assembly (the
// miss singleflight), and a completed assembly is inserted only if the
// generation is still unchanged (see leadAssembly) — so an assembly that
// raced a relevant publish or removal can never be cached under a key a
// later lookup would trust.
//
// The record read happens before the generation capture, which is safe:
// an entry's validity depends only on the master graph, base blob,
// packages and user data named by its key — all covered by the captured
// stripes — never on the record itself, which only selects which key a
// retrieval builds.
func (s *System) RetrieveTo(w io.Writer, name string) (int64, *RetrieveReport, error) {
	const maxAttempts = 3
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		rep := &RetrieveReport{Image: name, Meter: &simio.Meter{}}
		rec, err := s.repo.GetVMI(name, rep.Meter)
		if err != nil {
			return 0, nil, err
		}
		gen := s.repo.GenerationFor(rec.BaseID, name)
		// An assembly takes no commit lock, so one that overlaps a removal
		// or republish can fail on a state between that mutation's writes:
		// a blob released before its record is deleted, a master graph
		// rebuilt without the image's primaries. The mutation moved the
		// generation, or is about to; the next attempt reads what it left.
		transient := func(err error) bool {
			return notFound(err) || s.repo.GenerationFor(rec.BaseID, name) != gen
		}
		var n int64
		if s.cache == nil {
			n, err = s.assemble(name, rec.BaseID, rec.Primaries, name, rep, func(*vdisk.Disk) io.Writer { return w })
		} else {
			key := retrievecache.NewKey(rec.BaseID, rec.Primaries, name, gen)
			ent, gerr := s.cache.Get(key)
			if gerr != nil {
				return 0, nil, fmt.Errorf("core: retrieve %s: %w", name, gerr)
			}
			if ent != nil {
				s.cctr.hits[vmirepo.StripeFor(rec.BaseID)].Add(1)
				return serveEntry(w, rec, ent)
			}
			// Miss. Coalesce behind any in-flight assembly of the same
			// key — except on the final attempt, where the caller
			// assembles solo so repeated leader failures can never
			// starve it.
			var fl *flight
			if attempt < maxAttempts-1 {
				var leader bool
				if fl, leader = s.flights.join(key); !leader {
					<-fl.done
					if fl.ent != nil {
						s.cctr.coalesced.Add(1)
						return serveEntry(w, rec, fl.ent)
					}
					// A hard leader failure hits every follower too:
					// surface it like a solo assembly would, instead of
					// re-amplifying assembly load on a failing backend.
					if fl.err != nil && !transient(fl.err) {
						return 0, nil, fl.err
					}
					// The leader hit the transient not-found window, or
					// its assembly raced a mutation on this stripe: retry
					// with a fresh record and generation (usually
					// straight into a hit on the leader's insert at the
					// new generation, or into leading a fresh flight).
					lastErr = fl.err
					continue
				}
			}
			n, rep, err = s.leadAssembly(w, key, gen, rec, rep, fl)
		}
		if err == nil {
			return n, rep, nil
		}
		if n > 0 || !transient(err) {
			return n, nil, err
		}
		lastErr = err
	}
	return 0, nil, fmt.Errorf("core: retrieve %s: %w", name, lastErr)
}

// notFound reports the absence errors a retrieval or assembly can meet
// inside a concurrent mutation: a record already deleted (ErrNotFound), or
// a package, base or user-data blob already released while a record still
// names it (the blob store's own not-found sentinel, a distinct error).
func notFound(err error) bool {
	return errors.Is(err, vmirepo.ErrNotFound) || errors.Is(err, api.ErrBlobNotFound)
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
// not grow with image size.
func (s *System) AssembleTo(w io.Writer, name string, primaries []string, userDataFrom string) (int64, *RetrieveReport, error) {
	// Like Retrieve, Assemble takes no commit lock and retries when the
	// candidate base changes under it mid-assembly: a concurrent publish
	// commit replaced it (the rescan then finds the surviving, merged
	// master). Such an attempt fails with ErrNotFound once the record is
	// gone, or — between the replacement's writes — with whatever the
	// half-removed state produces (the base blob is released before its
	// record is deleted); either way the base's stripe generation moved.
	const maxAttempts = 3
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		rep := &RetrieveReport{Image: name, Meter: &simio.Meter{}}
		masters, err := s.repo.Masters()
		if err != nil {
			return 0, nil, err
		}
		sort.Slice(masters, func(i, j int) bool { return masters[i].BaseID < masters[j].BaseID })
		found := false
		for _, mg := range masters {
			if !hasAll(mg.PrimaryNames(), primaries) {
				continue
			}
			found = true
			gen := s.repo.GenerationFor(mg.BaseID)
			n, err := s.assemble(name, mg.BaseID, primaries, userDataFrom, rep, func(*vdisk.Disk) io.Writer { return w })
			if err == nil {
				return n, rep, nil
			}
			if n > 0 || (!notFound(err) && s.repo.GenerationFor(mg.BaseID) == gen) {
				return n, nil, err
			}
			lastErr = err
			break
		}
		if !found {
			return 0, nil, fmt.Errorf("core: no stored base provides packages %v", primaries)
		}
	}
	return 0, nil, fmt.Errorf("core: assemble %s: %w", name, lastErr)
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

// assemble implements Algorithm 3 against a specific base image and
// writes the serialized result to the writer sink picks for the finished
// disk, returning the bytes written. The disk reads untouched base
// clusters lazily through the base blob's reader, which pins the blob
// until assemble returns; nothing lazily backed outlives the call.
func (s *System) assemble(name, baseID string, primaries []string, userDataFrom string, rep *RetrieveReport, sink func(*vdisk.Disk) io.Writer) (int64, error) {
	// Line 1: subgraphs from the repository.
	mg, err := s.repo.GetMaster(baseID, rep.Meter)
	if err != nil {
		return 0, err
	}
	baseSub := mg.BaseSubgraph()
	psUnion := semgraph.New(mg.Attrs())
	for _, p := range primaries {
		sub, err := mg.PrimarySubgraph(p)
		if err != nil {
			return 0, fmt.Errorf("core: assemble %s: %w", name, err)
		}
		psUnion.Union(sub)
	}
	// Line 2: compatibility check.
	if !similarity.Compatible(baseSub, psUnion) {
		return 0, fmt.Errorf("core: assemble %s: primary packages incompatible with base %s", name, baseID)
	}

	// Lines 3–4: copy the base image and reset it. The copy is lazy: the
	// disk deserializes over the blob store's own reader (segment-offset
	// section reads on the disk backend, zero-copy views in memory), so
	// base clusters the assembly never touches are never materialized.
	rc, size, err := s.repo.OpenBase(baseID, simio.PhaseCopy, rep.Meter)
	if err != nil {
		return 0, err
	}
	defer rc.Close()
	ra, ok := rc.(io.ReaderAt)
	if !ok {
		return 0, fmt.Errorf("core: assemble %s: base reader %T is not an io.ReaderAt", name, rc)
	}
	disk, err := vdisk.DeserializeLazy(name, ra, size)
	if err != nil {
		return 0, err
	}
	h := guestfs.New(disk, s.dev, rep.Meter)
	if err := h.Launch(); err != nil {
		return 0, err
	}
	if err := h.Sysprep(nil); err != nil {
		return 0, err
	}
	fs, _ := h.FS()

	// Line 5: import the user data.
	if userDataFrom != "" {
		archive, err := s.repo.GetUserData(userDataFrom, simio.PhaseImport, rep.Meter)
		if err != nil {
			return 0, err
		}
		if archive != nil {
			files, err := pkgfmt.UnpackTar(archive)
			if err != nil {
				return 0, err
			}
			for _, f := range files {
				if err := fs.MkdirAll(path.Dir(f.Path)); err != nil {
					return 0, err
				}
				if err := fs.WriteFile(f.Path, f.Data); err != nil {
					return 0, err
				}
			}
		}
	}

	// Lines 6–10: packages in the primary subgraph missing from the base,
	// and their install order.
	var missing []string
	for _, v := range psUnion.Vertices() {
		if !baseSub.HasVertex(v.Pkg.Name) {
			missing = append(missing, v.Pkg.Name)
		}
	}
	order, err := pkgmgr.InstallOrder(graphUniverse{psUnion}, missing)
	if err != nil {
		return 0, err
	}

	// Lines 11–13: import and install through the guest package manager
	// from a temporary local repository.
	mgr, err := h.PackageManager()
	if err != nil {
		return 0, err
	}
	if err := fs.MkdirAll(localRepoDir); err != nil {
		return 0, err
	}
	if err := fs.MkdirAll("/etc/apt/sources.list.d"); err != nil {
		return 0, err
	}
	if err := fs.WriteFile("/etc/apt/sources.list.d/local.list",
		[]byte("deb [trusted=yes] file:"+localRepoDir+" ./\n")); err != nil {
		return 0, err
	}
	for _, group := range order {
		for _, pkgName := range group {
			// Every package in the install order is fetched and charged,
			// including one an earlier group already installed: the
			// modeled import cost counts each fetch.
			v, _ := psUnion.Vertex(pkgName)
			_, blob, err := s.repo.GetPackage(v.Pkg.Ref(), simio.PhaseImport, rep.Meter)
			if err != nil {
				return 0, err
			}
			local := path.Join(localRepoDir, pkgName+".deb")
			if err := fs.WriteFile(local, blob); err != nil {
				return 0, err
			}
			if mgr.IsInstalled(pkgName) {
				// Already present (e.g. imported by an earlier group).
				if err := fs.Remove(local); err != nil {
					return 0, err
				}
				continue
			}
			if err := mgr.Install(blob); err != nil {
				return 0, err
			}
			rep.Meter.Charge(simio.PhaseImport,
				s.dev.InstallCost(catalog.Real(v.Pkg.InstalledSize), 1))
			rep.Imported = append(rep.Imported, pkgName)
			rep.ImportedBytes += v.Pkg.InstalledSize
			if err := fs.Remove(local); err != nil {
				return 0, err
			}
		}
	}
	// Restore the default repository configuration (Sec. V-4).
	if err := fs.RemoveAll(localRepoDir); err != nil {
		return 0, err
	}
	if err := fs.Remove("/etc/apt/sources.list.d/local.list"); err != nil {
		return 0, err
	}
	h.Close()

	rep.base, rep.primaries = mg.Attrs(), append([]string(nil), primaries...)
	n, err := disk.WriteTo(sink(disk))
	if err != nil {
		return n, fmt.Errorf("core: assemble %s: stream image: %w", name, err)
	}
	return n, nil
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
