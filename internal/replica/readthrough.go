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
//
// Everything but Open and Get is the embedded local store's own method: a
// follower over a disk-backed store flushes and closes it like any other
// backend.
type ReadThrough struct {
	blobstore.Backend // the local store
	cl                *client.Client

	mu       sync.Mutex
	inflight map[blobstore.ID]chan struct{}

	fetches    atomic.Int64
	fetchBytes atomic.Int64
}

// NewReadThrough wraps local with writer-backed miss handling.
func NewReadThrough(local blobstore.Backend, cl *client.Client) *ReadThrough {
	return &ReadThrough{Backend: local, cl: cl, inflight: make(map[blobstore.ID]chan struct{})}
}

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
			if t.Backend.Has(id) {
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
	got, n, _, err := t.Backend.PutReader(pr)
	if err != nil {
		return fmt.Errorf("replica: fetch blob %s: %w", id, err)
	}
	if got != id {
		t.Backend.Release(got)
		return fmt.Errorf("replica: blob %s arrived hashing to %s: %w", id, got, blobstore.ErrCorrupt)
	}
	t.fetches.Add(1)
	t.fetchBytes.Add(n)
	return nil
}

// Open serves the blob from the local store, fetching it from the writer
// first on a miss.
func (t *ReadThrough) Open(id blobstore.ID) (io.ReadCloser, int64, error) {
	rc, size, err := t.Backend.Open(id)
	if err == nil || !errors.Is(err, blobstore.ErrNotFound) {
		return rc, size, err
	}
	if ferr := t.fetch(id); ferr != nil {
		return nil, 0, ferr
	}
	return t.Backend.Open(id)
}

// Get mirrors Open's read-through for the materializing getter.
func (t *ReadThrough) Get(id blobstore.ID) ([]byte, bool) {
	if b, ok := t.Backend.Get(id); ok {
		return b, true
	}
	if err := t.fetch(id); err != nil {
		return nil, false
	}
	return t.Backend.Get(id)
}

var _ blobstore.Backend = (*ReadThrough)(nil)
