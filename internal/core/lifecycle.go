package core

// Image lifecycle: TTL expiry and vacuum. Expiry removes images whose
// timestamp has passed through the ordinary striped Remove path, so
// everything an expired image referenced is garbage-collected exactly
// like an operator removal. Vacuum is the complementary deep clean: it
// reconciles every piece of derived state — package refcounts, tenant
// totals, lifecycle records — against the committed VMI records, removes
// what nothing references (including the blob orphans crash recovery
// deliberately resurrects), and compacts the stores to give the bytes
// back to the disk.

import (
	"errors"
	"fmt"
	"sync"

	"expelliarmus/internal/api"
	"expelliarmus/internal/vmirepo"
)

// ExpireAt removes every VMI whose expiry timestamp is at or before now
// (Unix seconds), returning the names removed. Each removal is the
// ordinary Remove transaction; a VMI already gone when its turn comes
// (raced by an operator removal) is skipped, not an error.
func (s *System) ExpireAt(now int64) ([]string, error) {
	if s.repo.ReadOnly() {
		return nil, fmt.Errorf("core: expire: %w", vmirepo.ErrReadOnly)
	}
	names, err := s.repo.ExpiredVMIs(now)
	if err != nil {
		return nil, err
	}
	var removed []string
	for _, name := range names {
		if err := s.Remove(name); err != nil {
			if errors.Is(err, vmirepo.ErrNotFound) {
				continue
			}
			return removed, fmt.Errorf("core: expire %s: %w", name, err)
		}
		removed = append(removed, name)
	}
	return removed, nil
}

// VacuumStats reports what one Vacuum pass reclaimed.
type VacuumStats = api.VacuumStats

// Vacuum walks the metadata graph and reclaims everything dangling:
// packages no VMI references, user-data archives and lifecycle records of
// VMIs that no longer exist, stale refcounts and tenant totals (rewritten
// from a fresh survey), and blobs no record references — the orphans
// crash recovery deliberately resurrects, which are the only drift the
// two-phase commit allows. On a disk-backed repository it then compacts
// both stores so the reclaimed bytes leave the disk.
//
// Vacuum holds every commit stripe: the survey must see a frozen
// metadata graph. Packages pinned by in-flight publishes that have not
// reached their commit lock yet are left alone; a publish stores its
// user-data archive only under its commit lock, so every archive record
// without a VMI is an orphan. The metadata writes land in a view window
// over every stripe; the blob sweep and compaction that follow touch
// nothing a reader can resolve.
func (s *System) Vacuum() (VacuumStats, error) {
	var st VacuumStats
	if s.repo.ReadOnly() {
		return st, fmt.Errorf("core: vacuum: %w", vmirepo.ErrReadOnly)
	}
	defer s.lockCommits()()
	unview := sync.OnceFunc(s.repo.WriteView())
	defer unview()

	counts, err := s.surveyPackageRefs()
	if err != nil {
		return st, fmt.Errorf("core: vacuum: %w", err)
	}
	liveVMIs := map[string]bool{}
	for _, name := range s.repo.VMIs() {
		liveVMIs[name] = true
	}

	// Packages no VMI references (pinned ones belong to in-flight
	// publishes and survive).
	pkgs, err := s.repo.Packages()
	if err != nil {
		return st, err
	}
	for _, rec := range pkgs {
		ref := rec.Pkg.Ref()
		if counts[ref] > 0 {
			continue
		}
		removed, err := s.removePackageUnlessPinned(ref)
		if err != nil {
			return st, err
		}
		if removed {
			st.PackagesRemoved++
			st.BytesReclaimed += rec.BlobSize
		}
	}

	// User-data archives whose VMI is gone.
	for _, name := range s.repo.UserDataNames() {
		if liveVMIs[name] {
			continue
		}
		if err := s.repo.RemoveUserData(name, nil); err != nil {
			return st, err
		}
		st.UserDataRemoved++
	}

	// Lifecycle records whose VMI is gone; tenant totals recomputed from
	// the survivors so accounting drift cannot accumulate.
	totals := map[string]int64{}
	for _, name := range s.repo.VMIMetaNames() {
		meta, ok, err := s.repo.GetVMIMeta(name, nil)
		if err != nil {
			return st, err
		}
		if !ok {
			continue
		}
		if !liveVMIs[name] {
			if err := s.repo.RemoveVMIMeta(name, nil); err != nil {
				return st, err
			}
			st.MetaRemoved++
			continue
		}
		if meta.Tenant != "" {
			totals[meta.Tenant] += meta.ChargedBytes
		}
	}
	if err := s.repo.ReplaceTenantUsage(totals, nil); err != nil {
		return st, err
	}
	if err := s.repo.ReplacePackageRefs(counts, nil); err != nil {
		return st, err
	}
	unview()

	// Blob-level sweep: release whatever no record references.
	bst, err := s.repo.VacuumBlobs()
	if err != nil {
		return st, err
	}
	st.BlobsReleased = bst.BlobsReleased
	st.BytesReclaimed += bst.BytesReclaimed

	// Give the bytes back to the disk. The repository-level compaction is
	// called directly (not via System.Compact) because this transaction
	// already holds every commit stripe.
	if s.repo.Persistent() {
		if _, err := s.repo.Compact(); err != nil {
			return st, err
		}
	}
	return st, nil
}

// TenantStats returns every tenant's recorded live bytes.
func (s *System) TenantStats() map[string]int64 { return s.repo.TenantStats() }
