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
// Everything but Open is the embedded local store's own method: a
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

// errFetchAbandoned ends a blob download whose local put has returned.
var errFetchAbandoned = errors.New("replica: local put returned before the download finished")

// fetch pulls one blob from the writer into the local store, coalescing
// concurrent misses on the same ID into one download: a caller that finds
// a download in flight waits for it, then takes its own turn, which finds
// the blob stored unless that download failed.
func (t *ReadThrough) fetch(id blobstore.ID) error {
	var ch chan struct{}
	for {
		t.mu.Lock()
		racing, ok := t.inflight[id]
		if !ok {
			ch = make(chan struct{})
			t.inflight[id] = ch
			t.mu.Unlock()
			break
		}
		t.mu.Unlock()
		<-racing
	}
	defer func() {
		t.mu.Lock()
		delete(t.inflight, id)
		t.mu.Unlock()
		close(ch)
	}()
	// A download that finished between this caller's miss and its turn
	// has stored the blob already.
	if _, ok := t.Backend.Size(id); ok {
		return nil
	}
	pr, pw := io.Pipe()
	go func() {
		_, err := t.cl.ReplBlob(context.Background(), id.String(), pw)
		pw.CloseWithError(err)
	}()
	got, n, _, err := t.Backend.PutReader(pr)
	// A put that returned without draining the pipe (a store in sticky
	// failure refuses before reading; a spool write can fail mid-stream)
	// would leave the download blocked in pw.Write forever: closing the
	// read side fails that write and ends the request.
	pr.CloseWithError(errFetchAbandoned)
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

var _ blobstore.Backend = (*ReadThrough)(nil)
