package core

import (
	"errors"
	"fmt"
	"slices"

	"expelliarmus/internal/blobstore"
	"expelliarmus/internal/master"
	"expelliarmus/internal/retrievecache"
	"expelliarmus/internal/simio"
	"expelliarmus/internal/vmirepo"
)

// NewSystemWithRepo creates a system over an existing repository (e.g. one
// restored from a snapshot).
func NewSystemWithRepo(repo *vmirepo.Repo, dev *simio.Device, opts Options) *System {
	return &System{repo: repo, dev: dev, opts: opts, cache: newCache(opts), pinned: make(map[string]int),
		memo:     newSlotMemo[recipe, retrievecache.Digest](memoSlots),
		bases:    newSlotMemo[blobstore.ID, resetBase](baseMemoSlots),
		packages: newBudgetMemo[blobstore.ID, extracted](pkgMemoSlots, pkgMemoBudget)}
}

// surveyPackageRefs counts, from the committed VMI records, how many VMIs
// reference each package — the ground truth the refcount bucket caches.
// Callers hold whatever commit locks their consistency needs.
func (s *System) surveyPackageRefs() (map[string]int64, error) {
	counts := map[string]int64{}
	for _, name := range s.repo.VMIs() {
		rec, err := s.repo.GetVMI(name, nil)
		if err != nil {
			return nil, err
		}
		refs, err := s.vmiPackageRefs(rec)
		if err != nil {
			return nil, err
		}
		for _, ref := range refs {
			counts[ref]++
		}
	}
	return counts, nil
}

// vmiPackageRefs returns, sorted, the non-base package refs a VMI's
// assembly pulls from the repository: the closure of its primaries within
// its master graph, minus base-image packages. A package is a base package
// when the master holds it as a base vertex (the membership test
// mg.BaseSubgraph().HasVertex answers, without extracting the subgraph).
func (s *System) vmiPackageRefs(rec vmirepo.VMIRecord) ([]string, error) {
	mg, err := s.repo.GetMaster(rec.BaseID, nil)
	if err != nil {
		return nil, err
	}
	sub, err := mg.PrimarySubgraph(rec.Primaries...)
	if err != nil {
		return nil, err
	}
	var refs []string
	for _, v := range sub.Vertices() {
		if _, isBase := mg.G.BaseVertex(v.Pkg.Name); !isBase {
			refs = append(refs, v.Pkg.Ref())
		}
	}
	slices.Sort(refs)
	return slices.Compact(refs), nil
}

// Remove deletes a published VMI: its user data and record go, and
// retire garbage-collects everything no remaining VMI needs.
//
// The paper treats the repository as append-only; removal closes the
// loop for long-lived deployments (images are versioned, cloned and
// eventually retired — the sprawl the paper opens with).
//
// Remove commits under the single commit-lock stripe of the VMI's
// attribute class, like publishes do: everything it reads and writes —
// the record, its master graph, the same-base survivor scan — stays
// within that class, and cross-class package sharing is settled by the
// refcounts (atomic in the repository), so publishes on unrelated classes
// are never blocked. The class is resolved like a publish resolves the
// record it replaces (lockRecordClass), and the writes land in a view
// window on the same stripe, so a reader sees the image whole or gone.
func (s *System) Remove(name string) error {
	// Refuse up front on followers — a removal that failed midway through
	// its garbage collection would still have been read-only safe (every
	// mutator is gated), but the early error keeps the route cheap.
	if s.repo.ReadOnly() {
		return fmt.Errorf("core: remove %s: %w", name, vmirepo.ErrReadOnly)
	}
	stripes, unlock := s.lockRecordClass(name)
	defer unlock()
	rec, err := s.repo.GetVMI(name, nil)
	if err != nil {
		return err
	}
	refs, err := s.vmiPackageRefs(rec)
	if err != nil {
		return fmt.Errorf("core: remove %s: %w", name, err)
	}
	defer s.repo.WriteView(stripes...)()
	if err := s.repo.RemoveUserData(name, nil); err != nil {
		return err
	}
	if err := s.repo.RemoveVMI(name, nil); err != nil {
		return err
	}
	return s.retire(rec, refs, nil)
}

// retire settles what a VMI record leaves behind once it is no longer its
// name's committed record, whether Remove deleted it or a republish
// replaced it. refs are the record's package refs, taken while its master
// still clustered it. In order, retire:
//
//  1. drops the record's refcounts and collects the packages no record
//     uses any more, unless an in-flight publish pinned them;
//  2. credits its tenant and deletes its lifecycle record;
//  3. removes its base image and master graph when no committed record is
//     clustered on that base any more, and otherwise rebuilds the master
//     from those records, so the master never advertises a package that
//     was just collected.
//
// The rebuild is the old master's base subgraph united with one closure of
// every surviving record's primaries. It equals clustering each primary's
// subgraph into master.New one by one: the closures' union is the closure
// of all the roots, and a closure's induced edges are every edge leaving
// it. The union skips AddPrimarySubgraph's checks, none of which can fail
// here: every vertex the closure brings is the old master's own, so
// compatibility compares a base package with itself (SimP(p, p) = 1) and
// a version conflict would need two different Refs for one name. What
// stays is PrimarySubgraph's error for a survivor's primary that is not a
// primary vertex of the master.
//
// The caller holds the commit and view stripes of the record's class.
// Every record on the record's base shares that class, so the survivor
// scan is stable while unrelated classes publish and remove concurrently;
// a listed record that another class removed before the scan read it is
// skipped.
func (s *System) retire(rec vmirepo.VMIRecord, refs []string, m *simio.Meter) error {
	dead, err := s.repo.DropPackageRefs(refs, m)
	if err != nil {
		return err
	}
	for _, ref := range dead {
		if _, err := s.removePackageUnlessPinned(ref); err != nil {
			return err
		}
	}

	meta, ok, err := s.repo.GetVMIMeta(rec.Name, m)
	if err != nil {
		return err
	}
	if ok {
		if err := s.repo.ChargeTenant(meta.Tenant, -meta.ChargedBytes, m); err != nil {
			return err
		}
		if err := s.repo.RemoveVMIMeta(rec.Name, m); err != nil {
			return err
		}
	}

	var sameBase []vmirepo.VMIRecord
	for _, other := range s.repo.VMIs() {
		orec, err := s.repo.GetVMI(other, nil)
		if errors.Is(err, vmirepo.ErrNotFound) {
			continue
		} else if err != nil {
			return err
		}
		if orec.BaseID == rec.BaseID {
			sameBase = append(sameBase, orec)
		}
	}
	if len(sameBase) == 0 {
		if err := s.repo.RemoveBase(rec.BaseID, m); err != nil {
			return err
		}
		return s.repo.RemoveMaster(rec.BaseID, m)
	}
	old, err := s.repo.GetMaster(rec.BaseID, m)
	if err != nil {
		return err
	}
	var primaries []string
	for _, sv := range sameBase {
		primaries = append(primaries, sv.Primaries...)
	}
	sub, err := old.PrimarySubgraph(primaries...)
	if err != nil {
		return err
	}
	rebuilt := master.New(rec.BaseID, old.BaseSubgraph())
	rebuilt.G.Union(sub)
	return s.repo.PutMaster(rebuilt, m)
}
