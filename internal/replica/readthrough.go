package replica

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"expelliarmus/internal/blobstore"
	"expelliarmus/internal/client"
)

// ReadThrough is a blob backend that serves from a local store and
// fetches misses from the writer's replication blob endpoint, caching
// them locally. The shipped metadata references blobs by content ID; the
// follower pulls each one the first time a retrieval needs it, so a
// fresh follower serves correct (if slower) retrievals immediately and
// converges to local-speed service as its cache warms.
//
// Fetched bytes are verified twice: the transport trailers catch a
// truncated or damaged stream, and the local store re-derives the
// content address as it ingests — a blob that hashes to the wrong ID is
// released and reported corrupt, never served.
type ReadThrough struct {
	local blobstore.Backend
	cl    *client.Client

	mu       sync.Mutex
	inflight map[blobstore.ID]chan struct{}

	fetches    atomic.Int64
	fetchBytes atomic.Int64
}

// NewReadThrough wraps local with writer-backed miss handling.
func NewReadThrough(local blobstore.Backend, cl *client.Client) *ReadThrough {
	return &ReadThrough{local: local, cl: cl, inflight: make(map[blobstore.ID]chan struct{})}
}

// Unwrap exposes the local store, so stats walks (and tests) can reach
// the underlying disk backend through the wrapper.
func (t *ReadThrough) Unwrap() blobstore.Backend { return t.local }

// Fetches reports how many blobs and bytes were pulled from the writer.
func (t *ReadThrough) Fetches() (blobs, bytes int64) {
	return t.fetches.Load(), t.fetchBytes.Load()
}

// fetch pulls one blob from the writer into the local store, coalescing
// concurrent misses on the same ID into one download.
func (t *ReadThrough) fetch(id blobstore.ID) error {
	var ch chan struct{}
	for {
		t.mu.Lock()
		if racing, ok := t.inflight[id]; ok {
			t.mu.Unlock()
			<-racing
			if t.local.Has(id) {
				return nil
			}
			// The racing fetch failed; take our own turn.
			continue
		}
		ch = make(chan struct{})
		t.inflight[id] = ch
		t.mu.Unlock()
		break
	}
	defer func() {
		t.mu.Lock()
		delete(t.inflight, id)
		t.mu.Unlock()
		close(ch)
	}()
	pr, pw := io.Pipe()
	go func() {
		_, err := t.cl.ReplBlob(context.Background(), id.String(), pw)
		pw.CloseWithError(err)
	}()
	got, n, _, err := t.local.PutReader(pr)
	if err != nil {
		return fmt.Errorf("replica: fetch blob %s: %w", id, err)
	}
	if got != id {
		t.local.Release(got)
		return fmt.Errorf("replica: blob %s arrived hashing to %s: %w", id, got, blobstore.ErrCorrupt)
	}
	t.fetches.Add(1)
	t.fetchBytes.Add(n)
	return nil
}

// Open serves the blob from the local store, fetching it from the writer
// first on a miss.
func (t *ReadThrough) Open(id blobstore.ID) (io.ReadCloser, int64, error) {
	rc, size, err := t.local.Open(id)
	if err == nil || !errors.Is(err, blobstore.ErrNotFound) {
		return rc, size, err
	}
	if ferr := t.fetch(id); ferr != nil {
		return nil, 0, ferr
	}
	return t.local.Open(id)
}

// Get mirrors Open's read-through for the materializing getter.
func (t *ReadThrough) Get(id blobstore.ID) ([]byte, bool) {
	if b, ok := t.local.Get(id); ok {
		return b, true
	}
	if err := t.fetch(id); err != nil {
		return nil, false
	}
	return t.local.Get(id)
}

// --- local delegation (the rest of the Backend contract) ---

func (t *ReadThrough) Put(data []byte) (blobstore.ID, bool) { return t.local.Put(data) }
func (t *ReadThrough) PutReader(r io.Reader) (blobstore.ID, int64, bool, error) {
	return t.local.PutReader(r)
}
func (t *ReadThrough) Size(id blobstore.ID) (int64, bool) { return t.local.Size(id) }
func (t *ReadThrough) Has(id blobstore.ID) bool           { return t.local.Has(id) }
func (t *ReadThrough) AddRef(id blobstore.ID) error       { return t.local.AddRef(id) }
func (t *ReadThrough) Refs(id blobstore.ID) int           { return t.local.Refs(id) }
func (t *ReadThrough) Release(id blobstore.ID) error      { return t.local.Release(id) }
func (t *ReadThrough) Len() int                           { return t.local.Len() }
func (t *ReadThrough) TotalBytes() int64                  { return t.local.TotalBytes() }
func (t *ReadThrough) Stats() (int64, int64)              { return t.local.Stats() }
func (t *ReadThrough) IDs() []blobstore.ID                { return t.local.IDs() }
func (t *ReadThrough) Snapshot() ([]byte, error)          { return t.local.Snapshot() }

// --- durability passthrough ---
//
// A follower over a disk-backed local store must flush and close it like
// any durable backend; over the in-memory store these are no-ops. The
// wrapper therefore always satisfies blobstore.Durable — the repository's
// read-only gate keeps the sync path unreachable on followers anyway,
// leaving Close (handle + lock release) as the call that matters.

func (t *ReadThrough) SyncData() (blobstore.SyncStats, error) {
	if d, ok := t.local.(blobstore.Durable); ok {
		return d.SyncData()
	}
	return blobstore.SyncStats{}, nil
}

func (t *ReadThrough) Sync() (blobstore.SyncStats, error) {
	if d, ok := t.local.(blobstore.Durable); ok {
		return d.Sync()
	}
	return blobstore.SyncStats{}, nil
}

func (t *ReadThrough) Close() error {
	if d, ok := t.local.(blobstore.Durable); ok {
		return d.Close()
	}
	return nil
}

func (t *ReadThrough) Err() error {
	if d, ok := t.local.(blobstore.Durable); ok {
		return d.Err()
	}
	return nil
}

var (
	_ blobstore.Backend = (*ReadThrough)(nil)
	_ blobstore.Durable = (*ReadThrough)(nil)
)
