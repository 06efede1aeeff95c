// Follower mode: a read-only repository whose metadata is fed by a
// writer's shipped snapshot + WAL batches instead of local mutation. The
// read path (retrievals, assembly, stats, streaming opens) is identical
// to a writer's; every mutating entry point returns ErrReadOnly. Applied
// batches bump the same generation stripes the writer's own mutators
// bump, so a retrieval cache layered above invalidates correctly as the
// follower catches up.
package vmirepo

import (
	"fmt"
	"io"
	"strings"

	"expelliarmus/internal/blobstore"
	"expelliarmus/internal/metadb"
	"expelliarmus/internal/metawal"
	"expelliarmus/internal/simio"
)

// OpenFollower returns a read-only follower repository over the given
// local blob backend (typically a read-through cache that fetches missing
// blobs from the writer). The metadata starts empty; seed it with
// ResetToSnapshotReader and advance it with ApplyWAL — the catch-up loop in
// internal/replica drives both.
func OpenFollower(dev *simio.Device, blobs blobstore.Backend) *Repo {
	r := &Repo{blobs: blobs, dev: dev, readOnly: true, fol: metawal.NewFollower()}
	r.db.Store(metadb.New())
	r.createBuckets()
	return r
}

// ReadOnly reports whether the repository is a follower (mutations return
// ErrReadOnly).
func (r *Repo) ReadOnly() bool { return r.readOnly }

// Follower exposes the WAL apply machinery of a follower repository (nil
// on writers) — position and totals for replication observability.
func (r *Repo) Follower() *metawal.Follower { return r.fol }

// ResetToSnapshotReader replaces the follower's metadata with a full
// snapshot at the given epoch — the initial seed, and the restart path
// when the writer's compaction switches epochs (metawal.ErrEpochGone).
// The snapshot is streamed into one right-sized buffer (metadb.Load needs
// the full image, but nothing upstream should have to materialize a
// second copy); size must be its exact length, and a short stream is
// refused without touching the current metadata. The swap is atomic for
// readers: in-flight retrievals finish against the old database, later
// ones see the new. Every generation stripe is bumped around the swap, so
// no cached assembly survives a whole-database replacement.
func (r *Repo) ResetToSnapshotReader(epoch uint64, src io.Reader, size int64) error {
	if !r.readOnly {
		return fmt.Errorf("vmirepo: ResetToSnapshotReader on a writer repository")
	}
	r.opMu.Lock()
	defer r.opMu.Unlock()
	db, err := r.fol.RestartFrom(epoch, src, size)
	if err != nil {
		return err
	}
	// The fixed buckets exist on any database a writer snapshots, but an
	// empty writer's very first snapshot and a defensive reader disagree
	// cheaply — ensure them like every other constructor does.
	for _, b := range allBuckets {
		db.CreateBucket(b)
	}
	done := r.mutate() // all stripes: nothing cached may survive the swap
	r.db.Store(db)
	done()
	return nil
}

// ApplyWAL applies one chunk of the writer's durable WAL tail — the bytes
// [from, from+len(chunk)) of the given epoch — in commit-marker-bounded
// batches. Each batch bumps the generation stripes its ops scope to,
// mirroring the writer's own bumps, so cached assemblies invalidate with
// the same precision on both sides. Torn or out-of-order chunks are
// refused without applying anything (see metawal.Follower.Apply).
func (r *Repo) ApplyWAL(epoch uint64, from int64, chunk []byte) (metawal.ApplyStats, error) {
	if !r.readOnly {
		return metawal.ApplyStats{}, fmt.Errorf("vmirepo: ApplyWAL on a writer repository")
	}
	r.opMu.RLock()
	defer r.opMu.RUnlock()
	return r.fol.Apply(epoch, from, chunk, func(ops []metadb.Op) func() {
		keys, all := stripeKeysFor(ops)
		if all {
			return r.mutate()
		}
		if len(keys) == 0 {
			return nil
		}
		return r.mutate(keys...)
	})
}

// stripeKeysFor derives the generation-stripe scoping keys of one applied
// batch, mirroring the bumps the writer's own mutators made when the
// batch was recorded: bases/masters ops scope to the base-image ID,
// vmis/userdata ops to the VMI name (a VMI put additionally scopes to the
// base ID its record names — PutVMI bumps both), a package delete is the
// package-GC fallback (the writer bumps every stripe), and a package
// insert bumps nothing (EnsurePackage deliberately doesn't — no assembly
// can depend on a ref no master references yet). Unknown buckets and
// bucket drops take the conservative all-stripes fallback.
func stripeKeysFor(ops []metadb.Op) (keys []string, all bool) {
	for _, op := range ops {
		switch op.Kind {
		case metadb.OpPut, metadb.OpDelete:
			switch op.Bucket {
			case bucketBases, bucketMasters, bucketUserData:
				keys = append(keys, string(op.Key))
			case bucketVMIs:
				keys = append(keys, string(op.Key))
				if op.Kind == metadb.OpPut {
					if base, _, ok := strings.Cut(string(op.Value), "\n"); ok {
						keys = append(keys, base)
					}
				}
			case bucketPackages:
				if op.Kind == metadb.OpDelete {
					return nil, true
				}
			case bucketVMIMeta:
				keys = append(keys, string(op.Key))
			case bucketTenants, bucketPkgRefs:
				// Accounting state: never read by the assembly path, and the
				// writer's own mutators bump nothing for it (see
				// lifecycle.go) — mirror that here.
			default:
				return nil, true
			}
		case metadb.OpDropBucket:
			return nil, true
		}
	}
	return keys, false
}

// MetaSnapshot serialises the follower-visible metadata database — the
// byte image the replay-equivalence tests compare against the writer's
// own snapshot (the full Snapshot format also embeds blob refcounts,
// which a read-through follower legitimately differs on).
func (r *Repo) MetaSnapshot() []byte { return r.meta().Snapshot() }

// OpenBlob opens a raw blob by content ID — the replication blob
// endpoint's read path (a follower fetches blobs it has not yet cached
// from the writer by ID). Absence and corruption keep their blobstore
// sentinels.
func (r *Repo) OpenBlob(id blobstore.ID) (io.ReadCloser, int64, error) {
	return r.blobs.Open(id)
}

// Device returns the repository's cost-model device — followers built by
// composition (internal/replica) share it with the core system above.
func (r *Repo) Device() *simio.Device { return r.dev }
