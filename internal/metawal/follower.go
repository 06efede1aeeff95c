package metawal

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"expelliarmus/internal/metadb"
)

// Follower errors. ErrOutOfOrder reports input that does not extend the
// follower's current position (a stale or skipped chunk, or a snapshot
// from an older epoch); ErrTorn reports a chunk that does not end on a
// commit boundary. Both are safe to retry after refetching: neither
// mutates the follower's state.
var (
	ErrOutOfOrder = errors.New("metawal: follower input out of order")
	ErrTorn       = errors.New("metawal: torn WAL chunk")
)

// BatchHook brackets one commit-marker-bounded batch as the follower
// applies it. It runs before the batch's first mutation lands; the
// returned done func (may be nil) runs after the last. This is the seam a
// repository uses to hold its view lock around each applied batch, so
// readers see the writer's commits whole.
type BatchHook func() (done func())

// ApplyStats reports one Apply call.
type ApplyStats struct {
	// Batches and Ops count the commit batches applied and the mutations
	// they carried; Bytes is the WAL byte range consumed.
	Batches int
	Ops     int
	Bytes   int64
}

// Follower is the apply side of the metadata WAL split: it ingests a
// writer's snapshot at some epoch, then applies the writer's durable WAL
// tail in commit-marker-bounded batches at strictly advancing offsets.
// Open's local replay and Apply read the log through the same batch
// scanner (scanBatches) and land ops through the same applyOp; they differ
// only in what they make of a tail that is not a whole batch — Open
// truncates one past its durable watermark as a crash artifact, Apply
// refuses the whole chunk so it can be refetched.
//
// A Follower validates everything it is fed: a chunk must start at the
// current applied offset (ErrOutOfOrder), parse completely, and end on a
// commit boundary (ErrTorn) — torn or out-of-order input is refused
// without applying anything, so the database only ever holds states the
// writer's Sync acknowledged. All methods are safe for concurrent use.
type Follower struct {
	mu      sync.Mutex
	db      *metadb.DB
	epoch   uint64
	applied int64
	batches int64
	ops     int64
}

// NewFollower returns a Follower with no state; Restart must seed it with
// a snapshot before Apply can run.
func NewFollower() *Follower { return &Follower{} }

// Restart seeds (or re-seeds) the follower from a full snapshot at the
// given epoch, discarding any current state. The applied offset resets to
// the epoch's WAL header — the writer's log for a fresh epoch starts
// empty. Re-seeding at the same epoch is allowed (a catch-up loop may
// restart after an error); an epoch below the current one is refused as
// out-of-order input. Returns the loaded database; the caller owns wiring
// it into its own structures.
func (f *Follower) Restart(epoch uint64, snapshot []byte) (*metadb.DB, error) {
	if epoch == 0 {
		return nil, fmt.Errorf("metawal: follower restart at epoch 0")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if epoch < f.epoch {
		return nil, fmt.Errorf("%w: snapshot epoch %d behind current %d", ErrOutOfOrder, epoch, f.epoch)
	}
	db, err := metadb.Load(snapshot)
	if err != nil {
		return nil, fmt.Errorf("metawal: follower snapshot: %w", err)
	}
	f.db = db
	f.epoch = epoch
	f.applied = walHeaderLen
	return db, nil
}

// RestartFrom is Restart fed from a stream of known length: the snapshot
// is read into exactly one right-sized buffer (metadb.Load needs the full
// image; the point is that nothing upstream buffers a second copy). A
// stream that ends short, or a read error, is refused without touching
// the current state.
func (f *Follower) RestartFrom(epoch uint64, src io.Reader, size int64) (*metadb.DB, error) {
	if size < 0 {
		return nil, fmt.Errorf("metawal: follower restart: negative snapshot size %d", size)
	}
	snapshot := make([]byte, size)
	if _, err := io.ReadFull(src, snapshot); err != nil {
		return nil, fmt.Errorf("metawal: follower snapshot stream: %w", err)
	}
	return f.Restart(epoch, snapshot)
}

// Apply applies one chunk of the writer's durable WAL tail: the bytes
// [from, from+len(chunk)) of epoch's log. The chunk must extend the
// follower's position exactly (epoch and from must match Position) and
// must hold whole commit batches — records that parse end to end with
// every op covered by a commit marker. Validation runs before any
// mutation: a refused chunk leaves the database untouched, so the caller
// can refetch and retry. hook (optional) observes each batch as it lands.
func (f *Follower) Apply(epoch uint64, from int64, chunk []byte, hook BatchHook) (ApplyStats, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var st ApplyStats
	if f.db == nil {
		return st, fmt.Errorf("metawal: follower has no snapshot (Restart first)")
	}
	if epoch != f.epoch {
		return st, fmt.Errorf("%w: chunk epoch %d, follower at %d", ErrOutOfOrder, epoch, f.epoch)
	}
	if from != f.applied {
		return st, fmt.Errorf("%w: chunk starts at %d, follower applied to %d", ErrOutOfOrder, from, f.applied)
	}
	batches, err := parseBatches(chunk)
	if err != nil {
		return st, err
	}
	for _, batch := range batches {
		var done func()
		if hook != nil {
			done = hook()
		}
		for _, op := range batch {
			applyOp(f.db, op)
		}
		if done != nil {
			done()
		}
		st.Batches++
		st.Ops += len(batch)
	}
	st.Bytes = int64(len(chunk))
	f.applied += st.Bytes
	f.batches += int64(st.Batches)
	f.ops += int64(st.Ops)
	return st, nil
}

// parseBatches splits a WAL byte range into its commit batches, refusing
// anything but whole, marker-closed batches: a record that fails to frame
// or a trailing batch missing its marker is ErrTorn (the chunk was cut
// mid-batch — refetch).
func parseBatches(chunk []byte) ([][]metadb.Op, error) {
	var batches [][]metadb.Op
	tail, err := scanBatches(chunk, 0, func(batch []metadb.Op, _ int) {
		batches = append(batches, batch)
	})
	if err != nil {
		return nil, fmt.Errorf("metawal: follower chunk %w", err)
	}
	if tail.frameErr != nil {
		return nil, fmt.Errorf("%w: offset %d: %v", ErrTorn, tail.off, tail.frameErr)
	}
	if tail.openOps > 0 {
		return nil, fmt.Errorf("%w: %d ops past the last commit boundary", ErrTorn, tail.openOps)
	}
	return batches, nil
}

// Position returns the follower's current epoch and applied WAL offset —
// the exact (epoch, from) the next Apply chunk must carry, and the offset
// to request from the writer's WALReader.
func (f *Follower) Position() (epoch uint64, applied int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch, f.applied
}

// Totals returns lifetime batches and ops applied across all epochs.
func (f *Follower) Totals() (batches, ops int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.batches, f.ops
}

// DB returns the follower's current database, or nil before the first
// Restart. The pointer changes on every Restart; callers that cache it
// must re-fetch after an epoch switch.
func (f *Follower) DB() *metadb.DB {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.db
}
