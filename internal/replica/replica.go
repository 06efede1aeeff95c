// Package replica implements the follower side of the replicated read
// path: a catch-up loop that tails a writer daemon's replication
// endpoints — commit watermark, snapshot, WAL tail — and applies them to
// a read-only follower repository, plus a read-through blob cache that
// pulls missing blobs from the writer on first retrieval.
//
// The protocol is pull-based and crash-tolerant by construction. The
// follower only ever asks for durable bytes (the writer's commit
// watermark bounds every WAL request), every shipped stream is verified
// against digest/length trailers, and the apply side
// (vmirepo.ApplyWAL → metawal.Follower) refuses torn or out-of-order
// chunks — so a writer crash, a connection cut, or a follower restart
// leaves the follower at some exact commit boundary the writer actually
// reached, never in between. When the writer's compaction retires the
// epoch being tailed, the WAL request comes back epoch-gone and the
// follower restarts from the current snapshot.
package replica

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"expelliarmus/internal/blobstore"
	"expelliarmus/internal/client"
	"expelliarmus/internal/metawal"
	"expelliarmus/internal/simio"
	"expelliarmus/internal/vmirepo"
	"expelliarmus/internal/wire"
)

// Options configure a Replica.
type Options struct {
	// Poll is the delay between commit polls once caught up (default
	// 500ms). Catch-up itself runs unthrottled.
	Poll time.Duration
	// Client configures the HTTP client used to tail the writer.
	Client client.Options
	// Logf, when set, receives progress lines (snapshot restarts, epoch
	// switches, apply errors).
	Logf func(format string, args ...any)
}

// Replica owns a follower repository and keeps it converging toward a
// writer daemon.
type Replica struct {
	repo      *vmirepo.Repo
	rt        *ReadThrough
	cl        *client.Client
	writerURL string
	opts      Options

	mu     sync.Mutex
	target wire.ReplCommit // writer position as of the last poll
}

// New builds a follower repository over local (the blob store misses are
// cached into) tailing the writer at writerURL, and returns the replica
// driving it. The repository starts empty; call CatchUp (or start Run)
// before serving.
func New(writerURL string, local blobstore.Backend, dev *simio.Device, opts Options) *Replica {
	if opts.Poll <= 0 {
		opts.Poll = 500 * time.Millisecond
	}
	cl := client.New(writerURL, opts.Client)
	rt := NewReadThrough(local, cl)
	return &Replica{
		repo:      vmirepo.OpenFollower(dev, rt),
		rt:        rt,
		cl:        cl,
		writerURL: writerURL,
		opts:      opts,
	}
}

// Repo returns the follower repository — wire it into a core.System with
// NewSystemWithRepo to serve retrievals/assemblies from the replica.
func (r *Replica) Repo() *vmirepo.Repo { return r.repo }

// Client returns the client tailing the writer.
func (r *Replica) Client() *client.Client { return r.cl }

func (r *Replica) logf(format string, args ...any) {
	if r.opts.Logf != nil {
		r.opts.Logf(format, args...)
	}
}

// restart seeds the follower from the writer's current snapshot. The
// snapshot streams from the wire into the follower's load path — trailer
// verification happens as the bytes flow, and the only materialization
// is the one exact-sized buffer the metadata load itself needs, so a
// restart never holds the snapshot twice.
func (r *Replica) restart(ctx context.Context) error {
	epoch, rc, size, err := r.cl.ReplSnapshotReader(ctx)
	if err != nil {
		return fmt.Errorf("replica: fetch snapshot: %w", err)
	}
	defer rc.Close()
	if err := r.repo.ResetToSnapshotReader(epoch, rc, size); err != nil {
		return fmt.Errorf("replica: load snapshot epoch %d: %w", epoch, err)
	}
	r.logf("replica: restarted from snapshot epoch %d (%d bytes)", epoch, size)
	return nil
}

// poll fetches the writer's durable position and records it as the
// catch-up target that ReplicationStats measures lag against.
func (r *Replica) poll(ctx context.Context) (wire.ReplCommit, error) {
	commit, err := r.cl.ReplCommit(ctx)
	if err != nil {
		return commit, fmt.Errorf("replica: poll commit: %w", err)
	}
	r.mu.Lock()
	r.target = commit
	r.mu.Unlock()
	return commit, nil
}

// CatchUp converges the follower to the writer's durable position as of
// one commit poll: snapshot-restart if the epoch moved (or the follower
// is fresh), then WAL tail application until applied == durable. It
// returns once caught up to that observed position; a writer that keeps
// committing needs the next CatchUp (Run loops it).
func (r *Replica) CatchUp(ctx context.Context) error {
	commit, err := r.poll(ctx)
	if err != nil {
		return err
	}
	for {
		epoch, applied := r.repo.Follower().Position()
		if epoch != commit.Epoch {
			if err := r.restart(ctx); err != nil {
				return err
			}
			// The snapshot may already be a newer epoch than the commit we
			// polled; re-poll so the tail request matches what we loaded.
			if commit, err = r.poll(ctx); err != nil {
				return err
			}
			continue
		}
		if applied >= commit.DurableBytes {
			return nil
		}
		chunk, err := r.cl.ReplWAL(ctx, epoch, applied)
		if err != nil {
			if errors.Is(err, metawal.ErrEpochGone) {
				// The writer compacted under us; restart from its new
				// snapshot on the next iteration.
				r.logf("replica: epoch %d retired by writer compaction", epoch)
				if commit, err = r.poll(ctx); err != nil {
					return err
				}
				continue
			}
			return fmt.Errorf("replica: fetch WAL tail: %w", err)
		}
		st, err := r.repo.ApplyWAL(epoch, applied, chunk)
		if err != nil {
			return fmt.Errorf("replica: apply WAL [%d, %d) of epoch %d: %w", applied, applied+int64(len(chunk)), epoch, err)
		}
		if st.Batches > 0 {
			r.logf("replica: applied %d batches / %d ops (%d bytes) at epoch %d", st.Batches, st.Ops, st.Bytes, epoch)
		}
	}
}

// Run polls and catches up until ctx is cancelled. Transient errors are
// logged and retried on the next poll — a follower outlives writer
// restarts.
func (r *Replica) Run(ctx context.Context) {
	t := time.NewTicker(r.opts.Poll)
	defer t.Stop()
	for {
		if err := r.CatchUp(ctx); err != nil && ctx.Err() == nil {
			r.logf("replica: catch-up: %v", err)
		}
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// ReplicationStats implements server.ReplStatser: the follower's applied
// position, the writer's last observed durable position, and the lag
// between them.
func (r *Replica) ReplicationStats() wire.ReplicationStats {
	r.mu.Lock()
	target := r.target
	r.mu.Unlock()
	fol := r.repo.Follower()
	epoch, applied := fol.Position()
	batches, ops := fol.Totals()
	st := wire.ReplicationStats{
		Role:         "follower",
		Epoch:        epoch,
		DurableBytes: target.DurableBytes,
		AppliedBytes: applied,
		Batches:      batches,
		Ops:          ops,
		WriterURL:    r.writerURL,
	}
	switch {
	case target.Epoch == epoch:
		if target.DurableBytes > applied {
			st.LagBytes = target.DurableBytes - applied
		}
	case target.Epoch != 0:
		// The follower is on a retired (or not yet loaded) epoch: its
		// applied offset counts bytes of a WAL the writer no longer
		// appends to, so none of the target's durable bytes are applied
		// yet — the whole target is outstanding. Reporting zero here
		// (the old behaviour) made the most-behind state look caught up.
		st.LagBytes = target.DurableBytes
	}
	return st
}

// Fetches reports the read-through traffic: how many blobs (and bytes)
// were pulled from the writer because a retrieval needed them before the
// local cache held them.
func (r *Replica) Fetches() (blobs, bytes int64) { return r.rt.Fetches() }

// Close releases the writer connection pool. The follower repository
// (and its local blob store) is closed separately by its owner.
func (r *Replica) Close() { r.cl.Close() }
