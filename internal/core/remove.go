package core

import (
	"fmt"
	"sort"

	"expelliarmus/internal/master"
	"expelliarmus/internal/simio"
	"expelliarmus/internal/vmirepo"
)

// NewSystemWithRepo creates a system over an existing repository (e.g. one
// restored from a snapshot).
func NewSystemWithRepo(repo *vmirepo.Repo, dev *simio.Device, opts Options) *System {
	return &System{repo: repo, dev: dev, opts: opts, cache: newCache(opts), pinned: make(map[string]int), udPinned: make(map[string]int)}
}

// surveyPackageRefs computes, from the committed VMI records, how many
// VMIs of each attribute class reference each package — the ground truth
// the refcount bucket caches. Callers hold whatever commit locks their
// consistency needs.
func (s *System) surveyPackageRefs() (map[string]map[string]int64, error) {
	counts := map[string]map[string]int64{}
	for _, name := range s.repo.VMIs() {
		rec, err := s.repo.GetVMI(name, nil)
		if err != nil {
			return nil, err
		}
		binfo, err := s.repo.BaseInfo(rec.BaseID)
		if err != nil {
			return nil, err
		}
		class := binfo.Attrs.String()
		refs, err := s.vmiPackageRefs(rec)
		if err != nil {
			return nil, err
		}
		for ref := range refs {
			if counts[ref] == nil {
				counts[ref] = map[string]int64{}
			}
			counts[ref][class]++
		}
	}
	return counts, nil
}

// vmiPackageRefs returns the non-base package refs a VMI's assembly pulls
// from the repository: the union of its primaries' subgraphs within its
// master graph, minus base-image packages.
func (s *System) vmiPackageRefs(rec vmirepo.VMIRecord) (map[string]bool, error) {
	mg, err := s.repo.GetMaster(rec.BaseID, nil)
	if err != nil {
		return nil, err
	}
	baseSub := mg.BaseSubgraph()
	refs := map[string]bool{}
	for _, p := range rec.Primaries {
		sub, err := mg.PrimarySubgraph(p)
		if err != nil {
			return nil, err
		}
		for _, v := range sub.Vertices() {
			if !baseSub.HasVertex(v.Pkg.Name) {
				refs[v.Pkg.Ref()] = true
			}
		}
	}
	return refs, nil
}

// Remove deletes a published VMI and garbage-collects everything no
// remaining VMI needs: packages referenced only by the removed image (per
// the per-class refcounts publishes maintain), its user data and
// lifecycle record, and — when it was the last VMI on its base — the base
// image and master graph. When the base survives, the master graph is
// rebuilt from the remaining VMIs so it no longer advertises unavailable
// packages.
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
// are never blocked. The class is resolved optimistically and
// re-validated under the stripe; a record that moves mid-resolve retries,
// and an unresolvable class falls back to every stripe. Packages pinned
// by in-flight publishes are never collected.
func (s *System) Remove(name string) error {
	// Refuse up front on followers — a removal that failed midway through
	// its garbage collection would still have been read-only safe (every
	// mutator is gated), but the early error keeps the route cheap.
	if s.repo.ReadOnly() {
		return fmt.Errorf("core: remove %s: %w", name, vmirepo.ErrReadOnly)
	}
	const maxAttempts = 4
	for attempt := 0; attempt < maxAttempts; attempt++ {
		rec, err := s.repo.GetVMI(name, nil)
		if err != nil {
			return err
		}
		binfo, err := s.repo.BaseInfo(rec.BaseID)
		if err != nil {
			// The base is mid-replacement by a same-class publish commit;
			// the next read sees the rewired record.
			continue
		}
		unlock := s.lockCommit(binfo.Attrs)
		rec2, err := s.repo.GetVMI(name, nil)
		if err != nil {
			unlock()
			return err
		}
		if rec2.BaseID != rec.BaseID {
			// Rewired or republished while resolving; its class stripe may
			// differ — re-resolve.
			unlock()
			continue
		}
		err = s.removeLocked(rec2, binfo.Attrs.String())
		unlock()
		return err
	}
	// The record would not hold still long enough to resolve its class;
	// the global transaction always works.
	defer s.lockAllCommits()()
	rec, err := s.repo.GetVMI(name, nil)
	if err != nil {
		return err
	}
	binfo, err := s.repo.BaseInfo(rec.BaseID)
	if err != nil {
		return fmt.Errorf("core: remove %s: %w", name, err)
	}
	return s.removeLocked(rec, binfo.Attrs.String())
}

// removeLocked is the removal transaction body; the caller holds (at
// least) the commit stripe of the record's attribute class.
func (s *System) removeLocked(rec vmirepo.VMIRecord, class string) error {
	name := rec.Name
	target, err := s.vmiPackageRefs(rec)
	if err != nil {
		return fmt.Errorf("core: remove %s: %w", name, err)
	}
	refs := make([]string, 0, len(target))
	for ref := range target {
		refs = append(refs, ref)
	}
	sort.Strings(refs)

	// Drop this record's refcounts; refs whose total across every class
	// hit zero are garbage (no survey of other classes' VMIs needed).
	dead, err := s.repo.DropPackageRefs(class, refs, nil)
	if err != nil {
		return err
	}
	for _, ref := range dead {
		if _, err := s.removePackageUnlessPinned(ref); err != nil {
			return err
		}
	}

	if err := s.repo.RemoveUserData(name, nil); err != nil {
		return err
	}
	if err := s.repo.RemoveVMI(name, nil); err != nil {
		return err
	}
	// Credit the tenant and drop the lifecycle record.
	meta, ok, err := s.repo.GetVMIMeta(name, nil)
	if err != nil {
		return err
	}
	if ok {
		if err := s.repo.ChargeTenant(meta.Tenant, -meta.ChargedBytes, nil); err != nil {
			return err
		}
		if err := s.repo.RemoveVMIMeta(name, nil); err != nil {
			return err
		}
	}

	// Scan for survivors on the same base. A VMI record's base determines
	// its class, so every record matching this BaseID commits under the
	// stripe we hold — the scan is stable even while unrelated classes
	// publish concurrently.
	var sameBase []vmirepo.VMIRecord
	for _, other := range s.repo.VMIs() {
		if other == name {
			continue
		}
		orec, err := s.repo.GetVMI(other, nil)
		if err != nil {
			return err
		}
		if orec.BaseID == rec.BaseID {
			sameBase = append(sameBase, orec)
		}
	}

	if len(sameBase) == 0 {
		if err := s.repo.RemoveBase(rec.BaseID, nil); err != nil {
			return err
		}
		return s.repo.RemoveMaster(rec.BaseID, nil)
	}

	// Rebuild the surviving master from the remaining VMIs' subgraphs so
	// Assemble cannot offer packages that were just garbage-collected.
	old, err := s.repo.GetMaster(rec.BaseID, nil)
	if err != nil {
		return err
	}
	rebuilt := master.New(rec.BaseID, old.BaseSubgraph())
	for _, sv := range sameBase {
		for _, p := range sv.Primaries {
			sub, err := old.PrimarySubgraph(p)
			if err != nil {
				return err
			}
			if err := rebuilt.AddPrimarySubgraph(sub); err != nil {
				return err
			}
		}
	}
	return s.repo.PutMaster(rebuilt, nil)
}
