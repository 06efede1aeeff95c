// Follower mode: a read-only repository whose metadata is fed by a
// writer's shipped snapshot + WAL batches instead of local mutation. The
// read path (retrievals, assembly, stats, streaming opens) is identical
// to a writer's; every mutating entry point returns ErrReadOnly. Applied
// ops run through the same journal as the writer's own writes, so they
// bump the same generation stripes and a retrieval cache layered above
// invalidates exactly as the writer's does as the follower catches up.
package vmirepo

import (
	"fmt"
	"io"

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
	r.attach(metadb.New())
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
// refused without touching the current metadata. The swap holds every
// view stripe: readers resolve against the old database or the new, and
// ones that already opened their blobs finish from them. Every generation
// stripe is bumped inside the swap, so no cached assembly survives a
// whole-database replacement.
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
	defer r.WriteView()()
	r.attach(db)
	r.bumpAll() // nothing cached may survive the swap
	return nil
}

// ApplyWAL applies one chunk of the writer's durable WAL tail — the bytes
// [from, from+len(chunk)) of the given epoch — in commit-marker-bounded
// batches. Each batch holds every view stripe while it lands, so a reader
// sees the writer's commits whole; its ops bump generation stripes through
// the journal, as the writer's did. Torn or out-of-order chunks are
// refused without applying anything (see metawal.Follower.Apply).
func (r *Repo) ApplyWAL(epoch uint64, from int64, chunk []byte) (metawal.ApplyStats, error) {
	if !r.readOnly {
		return metawal.ApplyStats{}, fmt.Errorf("vmirepo: ApplyWAL on a writer repository")
	}
	r.opMu.RLock()
	defer r.opMu.RUnlock()
	return r.fol.Apply(epoch, from, chunk, func() func() { return r.WriteView() })
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
