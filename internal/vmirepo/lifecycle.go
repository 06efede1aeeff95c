// Image lifecycle state: per-VMI lifecycle metadata (tenant, expiry,
// charged bytes), per-tenant live-byte accounting, per-class package
// reference counts, and the blob-level vacuum sweep. All of it lives in
// ordinary metadata buckets, so every mutation streams through the
// journal into the WAL and replays identically on followers — expiry and
// vacuum are replicated operations, not local heuristics.
package vmirepo

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"expelliarmus/internal/simio"
)

// VMIMeta is the lifecycle record of one published VMI. A VMI without a
// record (the common case: no tenant, no TTL) is unaccounted and never
// expires.
type VMIMeta struct {
	// Tenant is the owning namespace; "" means unaccounted.
	Tenant string
	// ExpiresAt is the Unix-seconds expiry timestamp; 0 means never.
	ExpiresAt int64
	// ChargedBytes is exactly what this publish charged its tenant (newly
	// stored package blobs + base blob if this publish stored it + the
	// user-data archive), recorded so removal credits the same amount and
	// the per-tenant totals never drift.
	ChargedBytes int64
}

func encodeVMIMeta(m VMIMeta) []byte {
	return []byte(m.Tenant + "\n" + strconv.FormatInt(m.ExpiresAt, 10) + "\n" + strconv.FormatInt(m.ChargedBytes, 10))
}

func decodeVMIMeta(name string, data []byte) (VMIMeta, error) {
	parts := strings.Split(string(data), "\n")
	if len(parts) != 3 {
		return VMIMeta{}, fmt.Errorf("vmirepo: corrupt lifecycle record for %q", name)
	}
	exp, err := strconv.ParseInt(parts[1], 10, 64)
	if err != nil {
		return VMIMeta{}, fmt.Errorf("vmirepo: corrupt lifecycle record for %q: %v", name, err)
	}
	charged, err := strconv.ParseInt(parts[2], 10, 64)
	if err != nil {
		return VMIMeta{}, fmt.Errorf("vmirepo: corrupt lifecycle record for %q: %v", name, err)
	}
	return VMIMeta{Tenant: parts[0], ExpiresAt: exp, ChargedBytes: charged}, nil
}

// PutVMIMeta stores (or replaces) a VMI's lifecycle record. Like PutVMI,
// a rewrite that would not change the stored bytes is elided from the
// journal.
func (r *Repo) PutVMIMeta(name string, meta VMIMeta, m *simio.Meter) error {
	if r.readOnly {
		return fmt.Errorf("vmirepo: store lifecycle record %q: %w", name, ErrReadOnly)
	}
	r.opMu.RLock()
	defer r.opMu.RUnlock()
	defer r.mutate(name)()
	val := encodeVMIMeta(meta)
	r.meta().Bucket(bucketVMIMeta).Update([]byte(name), func(old []byte, ok bool) ([]byte, bool) {
		if ok && bytes.Equal(old, val) {
			return nil, false
		}
		return val, true
	})
	r.chargeDB(m, int64(len(val)))
	return nil
}

// GetVMIMeta returns a VMI's lifecycle record, reporting absence (not an
// error — most VMIs have none).
func (r *Repo) GetVMIMeta(name string, m *simio.Meter) (VMIMeta, bool, error) {
	val, ok := r.meta().Bucket(bucketVMIMeta).Get([]byte(name))
	r.chargeDB(m, 0)
	if !ok {
		return VMIMeta{}, false, nil
	}
	meta, err := decodeVMIMeta(name, val)
	if err != nil {
		return VMIMeta{}, false, err
	}
	return meta, true, nil
}

// RemoveVMIMeta deletes a VMI's lifecycle record if present.
func (r *Repo) RemoveVMIMeta(name string, m *simio.Meter) error {
	if r.readOnly {
		return fmt.Errorf("vmirepo: remove lifecycle record %q: %w", name, ErrReadOnly)
	}
	r.opMu.RLock()
	defer r.opMu.RUnlock()
	defer r.mutate(name)()
	r.meta().Bucket(bucketVMIMeta).Delete([]byte(name))
	r.chargeDB(m, 0)
	return nil
}

// VMIMetaNames lists the VMIs holding a lifecycle record, sorted.
func (r *Repo) VMIMetaNames() []string {
	var out []string
	r.meta().Bucket(bucketVMIMeta).ForEach(func(k, v []byte) bool {
		out = append(out, string(k))
		return true
	})
	sort.Strings(out)
	return out
}

// UserDataNames lists the VMIs holding a user-data archive, sorted.
func (r *Repo) UserDataNames() []string {
	var out []string
	r.meta().Bucket(bucketUserData).ForEach(func(k, v []byte) bool {
		out = append(out, string(k))
		return true
	})
	sort.Strings(out)
	return out
}

// ExpiredVMIs returns the names of VMIs whose expiry timestamp is set and
// has passed, sorted for deterministic removal order.
func (r *Repo) ExpiredVMIs(now int64) ([]string, error) {
	var out []string
	var err error
	r.meta().Bucket(bucketVMIMeta).ForEach(func(k, v []byte) bool {
		var meta VMIMeta
		meta, err = decodeVMIMeta(string(k), v)
		if err != nil {
			return false
		}
		if meta.ExpiresAt != 0 && meta.ExpiresAt <= now {
			out = append(out, string(k))
		}
		return true
	})
	sort.Strings(out)
	return out, err
}

// --- per-tenant accounting ---

// ChargeTenant adjusts a tenant's live-byte total by delta; a total that
// reaches zero (or below, which indicates an accounting bug but must not
// wedge the bucket) deletes the key. The empty tenant is unaccounted and
// charges nowhere.
//
// ChargeTenant deliberately does not bump any generation stripe: tenant
// totals are never read by the assembly path, so invalidating cached
// images for them would flush warm entries for nothing.
func (r *Repo) ChargeTenant(tenant string, delta int64, m *simio.Meter) error {
	if tenant == "" || delta == 0 {
		return nil
	}
	if r.readOnly {
		return fmt.Errorf("vmirepo: charge tenant %q: %w", tenant, ErrReadOnly)
	}
	r.opMu.RLock()
	defer r.opMu.RUnlock()
	r.lcMu.Lock()
	defer r.lcMu.Unlock()
	b := r.meta().Bucket(bucketTenants)
	var cur int64
	if old, ok := b.Get([]byte(tenant)); ok {
		cur, _ = strconv.ParseInt(string(old), 10, 64)
	}
	cur += delta
	if cur <= 0 {
		b.Delete([]byte(tenant))
	} else {
		b.Put([]byte(tenant), []byte(strconv.FormatInt(cur, 10)))
	}
	r.chargeDB(m, 16)
	return nil
}

// TenantUsage returns a tenant's current live-byte total (0 when absent).
func (r *Repo) TenantUsage(tenant string) int64 {
	val, ok := r.meta().Bucket(bucketTenants).Get([]byte(tenant))
	if !ok {
		return 0
	}
	n, _ := strconv.ParseInt(string(val), 10, 64)
	return n
}

// TenantStats returns every tenant's live-byte total.
func (r *Repo) TenantStats() map[string]int64 {
	out := make(map[string]int64)
	r.meta().Bucket(bucketTenants).ForEach(func(k, v []byte) bool {
		n, _ := strconv.ParseInt(string(v), 10, 64)
		out[string(k)] = n
		return true
	})
	return out
}

// ReplaceTenantUsage rewrites the tenant bucket from recomputed totals —
// vacuum's reconciliation of accounting drift. Keys not in the survey are
// deleted; identical records are elided from the journal.
func (r *Repo) ReplaceTenantUsage(totals map[string]int64, m *simio.Meter) error {
	if r.readOnly {
		return fmt.Errorf("vmirepo: replace tenant usage: %w", ErrReadOnly)
	}
	r.opMu.RLock()
	defer r.opMu.RUnlock()
	r.lcMu.Lock()
	defer r.lcMu.Unlock()
	b := r.meta().Bucket(bucketTenants)
	var stale []string
	b.ForEach(func(k, v []byte) bool {
		if totals[string(k)] <= 0 {
			stale = append(stale, string(k))
		}
		return true
	})
	sort.Strings(stale)
	for _, t := range stale {
		b.Delete([]byte(t))
	}
	tenants := make([]string, 0, len(totals))
	for t, n := range totals {
		if t != "" && n > 0 {
			tenants = append(tenants, t)
		}
	}
	sort.Strings(tenants)
	for _, t := range tenants {
		val := []byte(strconv.FormatInt(totals[t], 10))
		b.Update([]byte(t), func(old []byte, ok bool) ([]byte, bool) {
			if ok && bytes.Equal(old, val) {
				return nil, false
			}
			return val, true
		})
	}
	r.chargeDB(m, int64(16*len(tenants)))
	return nil
}

// --- per-class package reference counts ---

// Package reference counts are keyed by package Ref; the value is the
// sorted per-class breakdown ("class\tcount" lines, class being the base
// attribute quadruple BaseAttrs.String()). Publishes of a class add refs
// for the packages their VMI uses; removals drop them, and a ref whose
// total across all classes reaches zero is garbage — exactly the
// information a single-class Remove needs to collect packages without
// surveying every other class's VMIs under a global lock.

func parsePkgRefs(val []byte) map[string]int64 {
	out := make(map[string]int64)
	for _, line := range strings.Split(string(val), "\n") {
		class, count, ok := strings.Cut(line, "\t")
		if !ok {
			continue
		}
		n, _ := strconv.ParseInt(count, 10, 64)
		if n > 0 {
			out[class] = n
		}
	}
	return out
}

func formatPkgRefs(refs map[string]int64) []byte {
	classes := make([]string, 0, len(refs))
	for c, n := range refs {
		if n > 0 {
			classes = append(classes, c)
		}
	}
	sort.Strings(classes)
	var b strings.Builder
	for i, c := range classes {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(c)
		b.WriteByte('\t')
		b.WriteString(strconv.FormatInt(refs[c], 10))
	}
	return []byte(b.String())
}

// AddPackageRefs counts one more use of each ref by a VMI of the given
// class. Like EnsurePackage, no generation stripe is bumped: refcounts
// are never read by the assembly path.
func (r *Repo) AddPackageRefs(class string, refs []string, m *simio.Meter) error {
	if r.readOnly {
		return fmt.Errorf("vmirepo: add package refs: %w", ErrReadOnly)
	}
	r.opMu.RLock()
	defer r.opMu.RUnlock()
	r.lcMu.Lock()
	defer r.lcMu.Unlock()
	b := r.meta().Bucket(bucketPkgRefs)
	for _, ref := range refs {
		counts := map[string]int64{}
		if old, ok := b.Get([]byte(ref)); ok {
			counts = parsePkgRefs(old)
		}
		counts[class]++
		b.Put([]byte(ref), formatPkgRefs(counts))
	}
	r.chargeDB(m, int64(16*len(refs)))
	return nil
}

// DropPackageRefs counts one fewer use of each ref by a VMI of the given
// class and returns (sorted) the refs whose total across ALL classes hit
// zero — the packages now unreferenced by any VMI, which the caller
// deletes via removePackageUnlessPinned. A ref with no record is skipped
// (Vacuum's survey reconciles the counts).
func (r *Repo) DropPackageRefs(class string, refs []string, m *simio.Meter) ([]string, error) {
	if r.readOnly {
		return nil, fmt.Errorf("vmirepo: drop package refs: %w", ErrReadOnly)
	}
	r.opMu.RLock()
	defer r.opMu.RUnlock()
	r.lcMu.Lock()
	defer r.lcMu.Unlock()
	b := r.meta().Bucket(bucketPkgRefs)
	var dead []string
	for _, ref := range refs {
		old, ok := b.Get([]byte(ref))
		if !ok {
			continue
		}
		counts := parsePkgRefs(old)
		counts[class]--
		if counts[class] <= 0 {
			delete(counts, class)
		}
		if len(counts) == 0 {
			b.Delete([]byte(ref))
			dead = append(dead, ref)
		} else {
			b.Put([]byte(ref), formatPkgRefs(counts))
		}
	}
	r.chargeDB(m, int64(16*len(refs)))
	sort.Strings(dead)
	return dead, nil
}

// ReplacePackageRefs rewrites the whole refcount bucket from a freshly
// surveyed per-ref, per-class count — vacuum's reconciliation. Existing
// records not in the survey are deleted; identical records are elided
// from the journal.
func (r *Repo) ReplacePackageRefs(counts map[string]map[string]int64, m *simio.Meter) error {
	if r.readOnly {
		return fmt.Errorf("vmirepo: replace package refs: %w", ErrReadOnly)
	}
	r.opMu.RLock()
	defer r.opMu.RUnlock()
	r.lcMu.Lock()
	defer r.lcMu.Unlock()
	b := r.meta().Bucket(bucketPkgRefs)
	var stale []string
	b.ForEach(func(k, v []byte) bool {
		if _, ok := counts[string(k)]; !ok {
			stale = append(stale, string(k))
		}
		return true
	})
	sort.Strings(stale)
	for _, ref := range stale {
		b.Delete([]byte(ref))
	}
	refs := make([]string, 0, len(counts))
	for ref := range counts {
		refs = append(refs, ref)
	}
	sort.Strings(refs)
	for _, ref := range refs {
		val := formatPkgRefs(counts[ref])
		if len(val) == 0 {
			b.Delete([]byte(ref))
			continue
		}
		b.Update([]byte(ref), func(old []byte, ok bool) ([]byte, bool) {
			if ok && bytes.Equal(old, val) {
				return nil, false
			}
			return val, true
		})
	}
	r.chargeDB(m, int64(16*len(refs)))
	return nil
}

// --- blob vacuum ---

// BlobVacuumStats reports what one blob-level vacuum sweep reclaimed.
type BlobVacuumStats struct {
	// BlobsReleased counts blobs fully released because no metadata record
	// referenced them (crash-recovery orphans, loser halves of interrupted
	// two-phase commits).
	BlobsReleased int
	// BytesReclaimed is those blobs' payload bytes.
	BytesReclaimed int64
}

// VacuumBlobs releases every blob no metadata record references — the
// orphans crash recovery deliberately resurrects (extra durable blobs are
// the safe side of every crash window) and the stray references abandoned
// publishes leave behind. It runs under the exclusive operation lock, so
// the referenced-blob set is computed against a quiescent store: no
// in-flight EnsurePackage can be between its blob put and its record put
// while the sweep looks. Releases drop a blob's entire reference count,
// because whatever count an unreferenced blob carries is by definition
// stale.
func (r *Repo) VacuumBlobs() (BlobVacuumStats, error) {
	var st BlobVacuumStats
	if r.readOnly {
		return st, fmt.Errorf("vmirepo: vacuum blobs: %w", ErrReadOnly)
	}
	r.opMu.Lock()
	defer r.opMu.Unlock()
	defer r.mutate()()
	live := make(map[string]struct{})
	var decodeErr error
	r.meta().Bucket(bucketPackages).ForEach(func(k, v []byte) bool {
		rec, err := decodePackageRecord(v)
		if err != nil {
			decodeErr = err
			return false
		}
		live[string(rec.BlobID[:])] = struct{}{}
		return true
	})
	if decodeErr != nil {
		return st, decodeErr
	}
	r.meta().Bucket(bucketBases).ForEach(func(k, v []byte) bool {
		rec, err := decodeBaseRecord(string(k), v)
		if err != nil {
			decodeErr = err
			return false
		}
		live[string(rec.BlobID[:])] = struct{}{}
		return true
	})
	if decodeErr != nil {
		return st, decodeErr
	}
	r.meta().Bucket(bucketUserData).ForEach(func(k, v []byte) bool {
		live[string(v)] = struct{}{}
		return true
	})
	for _, id := range r.blobs.IDs() {
		if _, ok := live[string(id[:])]; ok {
			continue
		}
		size, _ := r.blobs.Size(id)
		refs := r.blobs.Refs(id)
		for i := 0; i < refs && r.blobs.Has(id); i++ {
			if err := r.blobs.Release(id); err != nil {
				return st, fmt.Errorf("vmirepo: vacuum blob: %w", err)
			}
		}
		st.BlobsReleased++
		st.BytesReclaimed += size
	}
	return st, nil
}
