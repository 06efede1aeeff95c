package replica_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"expelliarmus/internal/blobstore"
	"expelliarmus/internal/blobstore/diskstore"
	"expelliarmus/internal/client"
	"expelliarmus/internal/replica"
	"expelliarmus/internal/wire"
)

// blobWriter serves h as the writer's blob route and returns a client for
// it. Cleanup drops open connections before closing the server, so a
// handler stuck writing to a reader that went away cannot hang the exit.
func blobWriter(t *testing.T, h http.HandlerFunc) *client.Client {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/repl/blob/{id}", h)
	srv := httptest.NewServer(mux)
	t.Cleanup(func() {
		srv.CloseClientConnections()
		srv.Close()
	})
	return client.New(srv.URL, client.Options{})
}

// writeBlob answers with data, trailered as the writer's blob route is, but
// with the digest of data itself: the transport check passes whatever ID
// the request named.
func writeBlob(w http.ResponseWriter, data []byte) {
	w.Header().Set("Trailer", wire.HeaderSha256+", "+wire.HeaderBytes)
	w.Write(data)
	sum := sha256.Sum256(data)
	w.Header().Set(wire.HeaderSha256, hex.EncodeToString(sum[:]))
	w.Header().Set(wire.HeaderBytes, strconv.Itoa(len(data)))
}

// missSignal reports every local Open that found no blob.
type missSignal struct {
	blobstore.Backend
	missed chan struct{}
}

func (m missSignal) Open(id blobstore.ID) (io.ReadCloser, int64, error) {
	rc, size, err := m.Backend.Open(id)
	if errors.Is(err, blobstore.ErrNotFound) {
		m.missed <- struct{}{}
	}
	return rc, size, err
}

// TestReadThroughCoalescesConcurrentMisses holds the one download open
// until every reader has missed locally, so all of them reach the fetch
// while it is in flight: they must share it.
func TestReadThroughCoalescesConcurrentMisses(t *testing.T) {
	const readers = 8
	data := bytes.Repeat([]byte("one blob, many readers "), 1000)
	id := blobstore.Sum(data)
	var requests atomic.Int64
	release := make(chan struct{})
	cl := blobWriter(t, func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		<-release
		writeBlob(w, data)
	})
	local := missSignal{Backend: blobstore.New(), missed: make(chan struct{}, readers)}
	rt := replica.NewReadThrough(local, cl)
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		go func() {
			rc, _, err := rt.Open(id)
			if err == nil {
				var got []byte
				got, err = io.ReadAll(rc)
				rc.Close()
				if err == nil && !bytes.Equal(got, data) {
					err = errors.New("read-through served other bytes")
				}
			}
			errs <- err
		}()
	}
	for i := 0; i < readers; i++ {
		<-local.missed
	}
	close(release)
	for i := 0; i < readers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if blobs, n := rt.Fetches(); blobs != 1 || n != int64(len(data)) {
		t.Fatalf("Fetches = %d blobs, %d bytes; want 1, %d", blobs, n, len(data))
	}
	if n := requests.Load(); n != 1 {
		t.Fatalf("the writer served %d downloads, want 1", n)
	}
}

// TestReadThroughRefusesMismatchedBlob: bytes that pass the transport
// check but hash to another ID are refused as corrupt, and the local store
// keeps nothing of them.
func TestReadThroughRefusesMismatchedBlob(t *testing.T) {
	served := []byte("bytes the writer should not have sent")
	want := blobstore.Sum([]byte("the blob the follower asked for"))
	for _, tc := range []struct {
		name  string
		local func(t *testing.T) blobstore.Backend
	}{
		{"memory", func(*testing.T) blobstore.Backend { return blobstore.New() }},
		{"disk", func(t *testing.T) blobstore.Backend {
			s, err := diskstore.Open(t.TempDir(), diskstore.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			return s
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl := blobWriter(t, func(w http.ResponseWriter, r *http.Request) { writeBlob(w, served) })
			local := tc.local(t)
			rt := replica.NewReadThrough(local, cl)
			if rc, _, err := rt.Open(want); !errors.Is(err, blobstore.ErrCorrupt) {
				if err == nil {
					rc.Close()
				}
				t.Fatalf("Open of a mismatched blob = %v, want ErrCorrupt", err)
			}
			if ids := local.IDs(); len(ids) != 0 || local.TotalBytes() != 0 {
				t.Fatalf("local store kept %d blobs, %d bytes of the refused fetch", len(ids), local.TotalBytes())
			}
			if blobs, _ := rt.Fetches(); blobs != 0 {
				t.Fatalf("a refused blob counted as %d fetches", blobs)
			}
		})
	}
}

var errRefused = errors.New("local store refuses puts")

// refusingBlobs refuses every put without reading it, as a store in
// sticky failure does.
type refusingBlobs struct{ blobstore.Backend }

func (refusingBlobs) PutReader(io.Reader) (blobstore.ID, int64, bool, error) {
	return blobstore.ID{}, 0, false, errRefused
}

// TestReadThroughRefusedPutEndsDownload: when the local put returns
// without draining the download, the download must end too. The writer
// streams more than the loopback socket buffers hold, so its handler
// finishes only if the follower closes the connection.
func TestReadThroughRefusedPutEndsDownload(t *testing.T) {
	finished := make(chan struct{})
	cl := blobWriter(t, func(w http.ResponseWriter, r *http.Request) {
		defer close(finished)
		chunk := make([]byte, 64<<10)
		for i := 0; i < 1024; i++ {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	})
	rt := replica.NewReadThrough(refusingBlobs{blobstore.New()}, cl)
	if _, _, err := rt.Open(blobstore.Sum([]byte("any blob"))); !errors.Is(err, errRefused) {
		t.Fatalf("Open through a refusing store = %v, want its refusal", err)
	}
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("the writer's blob handler is still streaming to a fetch whose put gave up")
	}
}
