// Image lifecycle state: per-VMI lifecycle metadata (tenant, expiry,
// charged bytes), per-tenant live-byte accounting, package reference
// counts, and the blob-level vacuum sweep. All of it lives in
// ordinary metadata buckets, so every mutation streams through the
// journal into the WAL and replays identically on followers — expiry and
// vacuum are replicated operations, not local heuristics.
package vmirepo

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"expelliarmus/internal/metadb"
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

// encodeVMIMeta joins tenant, expiry and charge with newlines. The two
// trailing fields are integers, so decodeVMIMeta splits them off the end
// and the tenant may hold any byte, newlines included.
func encodeVMIMeta(m VMIMeta) []byte {
	return []byte(m.Tenant + "\n" + strconv.FormatInt(m.ExpiresAt, 10) + "\n" + strconv.FormatInt(m.ChargedBytes, 10))
}

func decodeVMIMeta(name string, data []byte) (VMIMeta, error) {
	s := string(data)
	j := strings.LastIndexByte(s, '\n')
	i := strings.LastIndexByte(s[:max(j, 0)], '\n')
	if i < 0 {
		return VMIMeta{}, fmt.Errorf("vmirepo: corrupt lifecycle record for %q", name)
	}
	exp, err := strconv.ParseInt(s[i+1:j], 10, 64)
	if err != nil {
		return VMIMeta{}, fmt.Errorf("vmirepo: corrupt lifecycle record for %q: %v", name, err)
	}
	charged, err := strconv.ParseInt(s[j+1:], 10, 64)
	if err != nil {
		return VMIMeta{}, fmt.Errorf("vmirepo: corrupt lifecycle record for %q: %v", name, err)
	}
	return VMIMeta{Tenant: s[:i], ExpiresAt: exp, ChargedBytes: charged}, nil
}

// PutVMIMeta stores (or replaces) a VMI's lifecycle record.
func (r *Repo) PutVMIMeta(name string, meta VMIMeta, m *simio.Meter) error {
	if r.readOnly {
		return fmt.Errorf("vmirepo: store lifecycle record %q: %w", name, ErrReadOnly)
	}
	r.opMu.RLock()
	defer r.opMu.RUnlock()
	val := encodeVMIMeta(meta)
	r.meta().Bucket(bucketVMIMeta).Put([]byte(name), val)
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
	return out
}

// UserDataNames lists the VMIs holding a user-data archive, sorted.
func (r *Repo) UserDataNames() []string {
	var out []string
	r.meta().Bucket(bucketUserData).ForEach(func(k, v []byte) bool {
		out = append(out, string(k))
		return true
	})
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
	return out, err
}

// --- per-tenant accounting ---

// ChargeTenant adjusts a tenant's live-byte total by delta; a total that
// reaches zero (or below, which indicates an accounting bug but must not
// wedge the bucket) deletes the key. The empty tenant is unaccounted and
// charges nowhere.
func (r *Repo) ChargeTenant(tenant string, delta int64, m *simio.Meter) error {
	if tenant == "" || delta == 0 {
		return nil
	}
	if r.readOnly {
		return fmt.Errorf("vmirepo: charge tenant %q: %w", tenant, ErrReadOnly)
	}
	r.opMu.RLock()
	defer r.opMu.RUnlock()
	addCount(r.meta().Bucket(bucketTenants), tenant, delta)
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
func (r *Repo) TenantStats() map[string]int64 { return readCounts(r.meta().Bucket(bucketTenants)) }

// ReplaceTenantUsage rewrites the tenant bucket from recomputed totals —
// vacuum's reconciliation of accounting drift. Keys not in the survey are
// deleted.
func (r *Repo) ReplaceTenantUsage(totals map[string]int64, m *simio.Meter) error {
	if r.readOnly {
		return fmt.Errorf("vmirepo: replace tenant usage: %w", ErrReadOnly)
	}
	r.opMu.RLock()
	defer r.opMu.RUnlock()
	n := replaceCounts(r.meta().Bucket(bucketTenants), totals)
	r.chargeDB(m, int64(16*n))
	return nil
}

// --- package reference counts ---

// A package's reference count is keyed by its Ref; the value is the
// decimal number of committed VMI records whose assembly pulls it.
// Publishes add the refs of the record they commit; retiring a record
// drops its refs, and a ref whose count reaches zero is garbage — exactly
// what a single-class Remove needs to collect packages without surveying
// every other class's VMIs under a global lock. Each update of one count
// is atomic (addCount).

// AddPackageRefs counts one more use of each ref.
func (r *Repo) AddPackageRefs(refs []string, m *simio.Meter) error {
	if r.readOnly {
		return fmt.Errorf("vmirepo: add package refs: %w", ErrReadOnly)
	}
	r.opMu.RLock()
	defer r.opMu.RUnlock()
	b := r.meta().Bucket(bucketPkgRefs)
	for _, ref := range refs {
		addCount(b, ref, 1)
	}
	r.chargeDB(m, int64(16*len(refs)))
	return nil
}

// DropPackageRefs counts one fewer use of each ref and returns (sorted)
// the refs whose count hit zero — the packages now unreferenced by any
// VMI, which the caller deletes via removePackageUnlessPinned. A ref with
// no record is skipped (Vacuum's survey reconciles the counts).
func (r *Repo) DropPackageRefs(refs []string, m *simio.Meter) ([]string, error) {
	if r.readOnly {
		return nil, fmt.Errorf("vmirepo: drop package refs: %w", ErrReadOnly)
	}
	r.opMu.RLock()
	defer r.opMu.RUnlock()
	b := r.meta().Bucket(bucketPkgRefs)
	var dead []string
	for _, ref := range refs {
		if n, had := addCount(b, ref, -1); had && n <= 0 {
			dead = append(dead, ref)
		}
	}
	r.chargeDB(m, int64(16*len(refs)))
	sort.Strings(dead)
	return dead, nil
}

// ReplacePackageRefs rewrites the whole refcount bucket from a freshly
// surveyed per-ref count — vacuum's reconciliation. Records not in the
// survey are deleted.
func (r *Repo) ReplacePackageRefs(counts map[string]int64, m *simio.Meter) error {
	if r.readOnly {
		return fmt.Errorf("vmirepo: replace package refs: %w", ErrReadOnly)
	}
	r.opMu.RLock()
	defer r.opMu.RUnlock()
	n := replaceCounts(r.meta().Bucket(bucketPkgRefs), counts)
	r.chargeDB(m, int64(16*n))
	return nil
}

// PackageRefs returns every package's reference count.
func (r *Repo) PackageRefs() map[string]int64 { return readCounts(r.meta().Bucket(bucketPkgRefs)) }

// --- decimal count buckets: tenant totals and package refcounts ---

// addCount atomically adds delta to key's count and returns the new count
// and whether the key held one; a count that reaches zero (or below, which
// indicates an accounting bug but must not wedge the bucket) deletes the
// key.
func addCount(b *metadb.Bucket, key string, delta int64) (n int64, had bool) {
	b.Update([]byte(key), func(old []byte, ok bool) ([]byte, bool) {
		if had = ok; ok {
			n, _ = strconv.ParseInt(string(old), 10, 64)
		}
		n += delta
		return []byte(strconv.FormatInt(n, 10)), n > 0
	})
	return n, had
}

// replaceCounts rewrites a count bucket to hold exactly the positive
// counts given (the empty key never counts), deleting every other key, and
// returns how many keys it kept. Its scan and writes are not one atomic
// step: the caller, Vacuum, holds every commit stripe, so no publish or
// removal updates a count meanwhile.
func replaceCounts(b *metadb.Bucket, counts map[string]int64) int {
	var stale []string
	b.ForEach(func(k, v []byte) bool {
		if counts[string(k)] <= 0 {
			stale = append(stale, string(k))
		}
		return true
	})
	for _, k := range stale {
		b.Delete([]byte(k))
	}
	keys := make([]string, 0, len(counts))
	for k, n := range counts {
		if k != "" && n > 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.Put([]byte(k), []byte(strconv.FormatInt(counts[k], 10)))
	}
	return len(keys)
}

// readCounts returns every count a count bucket holds.
func readCounts(b *metadb.Bucket) map[string]int64 {
	out := make(map[string]int64)
	b.ForEach(func(k, v []byte) bool {
		n, _ := strconv.ParseInt(string(v), 10, 64)
		out[string(k)] = n
		return true
	})
	return out
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
		for i := 0; i < refs && r.blobs.Refs(id) > 0; i++ {
			if err := r.blobs.Release(id); err != nil {
				return st, fmt.Errorf("vmirepo: vacuum blob: %w", err)
			}
		}
		st.BlobsReleased++
		st.BytesReclaimed += size
	}
	return st, nil
}
