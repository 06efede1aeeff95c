package server_test

// The digest trailer on every path out of core.RetrieveTo and AssembleTo.
// Core supplies every digest: a cached image's is the one its retrieval
// cache entry took when it was built, a repeated uncached retrieval's comes from core's
// digest memo, any other body is hashed as it streams. These tests pin
// that every kind of trailer is the SHA-256 of the bytes actually sent.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"expelliarmus/internal/blobstore"
	"expelliarmus/internal/blobstore/blobstoretest"
	"expelliarmus/internal/client"
	"expelliarmus/internal/core"
	"expelliarmus/internal/fstree"
	"expelliarmus/internal/fsx"
	"expelliarmus/internal/fsx/fsxtest"
	"expelliarmus/internal/server"
	"expelliarmus/internal/vmi"
	"expelliarmus/internal/vmirepo"
	"expelliarmus/internal/wire"
)

// digestAudit wraps the server and checks, for every response that ends
// with a digest trailer, that the trailer is the SHA-256 of the body the
// handler wrote — on the server side, independently of the client's check.
type digestAudit struct {
	h       http.Handler
	t       *testing.T
	checked atomic.Int64
}

type auditWriter struct {
	http.ResponseWriter
	h hash.Hash
}

func (a *auditWriter) Write(p []byte) (int, error) {
	n, err := a.ResponseWriter.Write(p)
	a.h.Write(p[:n])
	return n, err
}

func (d *digestAudit) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	aw := &auditWriter{ResponseWriter: w, h: sha256.New()}
	d.h.ServeHTTP(aw, r)
	if got := w.Header().Get(wire.HeaderSha256); got != "" {
		if want := hex.EncodeToString(aw.h.Sum(nil)); got != want {
			d.t.Errorf("%s %s: digest trailer %s, body SHA-256 %s", r.Method, r.URL.Path, got, want)
		}
		d.checked.Add(1)
	}
}

// startAudited serves sys behind a digestAudit on a loopback listener.
func startAudited(t *testing.T, sys *core.System) (*client.Client, *digestAudit) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	audit := &digestAudit{h: server.New(sys), t: t}
	srv := &http.Server{Handler: audit}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	cl := client.New(ln.Addr().String(), client.Options{Timeout: 2 * time.Minute})
	t.Cleanup(func() { cl.Close() })
	return cl, audit
}

type readAtCloser interface {
	io.ReadCloser
	io.ReaderAt
}

// awaitFollowers returns once n retrievals wait on the flight of an
// in-flight assembly: in RetrieveTo itself, where a follower waits for
// its leader, not in a blob read under it, where the leader is parked.
func awaitFollowers(n int) { fsxtest.AwaitWaiting(n, "core.(*System).RetrieveTo(", nil) }

// TestRetrieveTrailerDigestOnEveryPath runs one remote retrieval, or a
// coalesced storm of them, down each path RetrieveTo can take. Every
// client.Retrieve must verify, every trailer must be the body's SHA-256,
// and the cache counters must show the path was the one named.
func TestRetrieveTrailerDigestOnEveryPath(t *testing.T) {
	const clients = 4
	img := buildTestImage(t, "digest", true, 0)
	sibling := buildTestImage(t, "sibling", false, 0)
	republished := buildTestImage(t, "digest", true, 0)
	fs, err := fstree.Mount(republished.Disk)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/home/user/notes.txt", []byte("republished user data")); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name       string
		cacheBytes int64
		retrieves  int
		// gate runs while the first retrieval's assembly is parked at its
		// first blob read, once it opened its blobs and dropped the view
		// lock.
		gate  func(t *testing.T, sys *core.System)
		check func(st core.CacheStats) error
		// republish is published after the first retrieval; the later
		// ones must return it, with a digest the first did not carry.
		republish *vmi.Image
		// assemble makes every request a client.Assemble of the image.
		assemble bool
	}{
		{name: "cache-off", retrieves: 1},
		{
			name: "hit", cacheBytes: 64 << 20, retrieves: 2,
			check: func(st core.CacheStats) error {
				if st.Puts != 1 || st.Hits != 1 {
					return fmt.Errorf("want 1 put and 1 hit")
				}
				return nil
			},
		},
		{
			name: "coalesced", cacheBytes: 64 << 20, retrieves: clients,
			gate: func(*testing.T, *core.System) { awaitFollowers(clients - 1) },
			check: func(st core.CacheStats) error {
				if st.Puts != 1 || st.Coalesced != clients-1 {
					return fmt.Errorf("want 1 put and %d coalesced", clients-1)
				}
				return nil
			},
		},
		{
			name: "over-budget", cacheBytes: 1024, retrieves: clients,
			gate: func(*testing.T, *core.System) { awaitFollowers(clients - 1) },
			check: func(st core.CacheStats) error {
				if st.Puts != 0 || st.Rejected != 1 || st.Coalesced != clients-1 {
					return fmt.Errorf("want 0 puts, 1 rejected and %d coalesced", clients-1)
				}
				return nil
			},
		},
		{
			name: "stand-down", cacheBytes: 64 << 20, retrieves: 1,
			gate: func(t *testing.T, sys *core.System) {
				if _, err := sys.Publish(sibling.Clone()); err != nil {
					t.Errorf("publish inside the assembly: %v", err)
				}
			},
			check: func(st core.CacheStats) error {
				var inval int64
				for _, v := range st.StripeInvalidations {
					inval += v
				}
				if st.Puts != 0 || inval != 1 {
					return fmt.Errorf("want 0 puts and 1 stood-down insert")
				}
				return nil
			},
		},
		// Uncached repeats: the first is hashed into the digest memo, the
		// others are sent with its digest.
		{name: "cache-off-repeat", retrieves: 3},
		{name: "cache-off-after-republish", retrieves: 2, republish: republished},
		{name: "assemble", retrieves: 1, assemble: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pause := fsxtest.NewPause()
			sys := core.NewSystemWithRepo(vmirepo.NewWithBackend(testDevice(), pause.Blobs(blobstore.New())), testDevice(), core.Options{CacheBytes: tc.cacheBytes})
			if _, err := sys.Publish(img.Clone()); err != nil {
				t.Fatal(err)
			}
			var ref bytes.Buffer
			reference := func() {
				ref.Reset()
				uncached := core.NewSystemWithRepo(sys.Repo(), testDevice(), core.Options{})
				var err error
				if tc.assemble {
					_, _, err = uncached.AssembleTo(&ref, "digest", nil, "digest")
				} else {
					_, _, err = uncached.RetrieveTo(&ref, "digest")
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			pause.Arm(0)
			reference()
			firstRead := 1 + slices.IndexFunc(pause.Calls(), func(c fsx.Call) bool { return c.Op == "Read" })
			cl, audit := startAudited(t, sys)
			if tc.gate != nil {
				pause.Arm(firstRead)
				go func() {
					<-pause.Parked()
					tc.gate(t, sys)
					pause.Resume()
				}()
			}

			retrieve := func(i int) {
				var got bytes.Buffer
				var err error
				if tc.assemble {
					_, _, err = cl.Assemble(context.Background(), wire.AssembleRequest{Name: "digest", UserDataFrom: "digest"}, &got)
				} else {
					_, _, err = cl.Retrieve(context.Background(), "digest", &got)
				}
				if err != nil {
					t.Errorf("retrieval %d: %v", i, err)
					return
				}
				if !bytes.Equal(got.Bytes(), ref.Bytes()) {
					t.Errorf("retrieval %d: %d bytes differ from an uncached retrieval's %d", i, got.Len(), ref.Len())
				}
				if i == 0 && tc.republish != nil {
					first := sha256.Sum256(got.Bytes())
					if _, err := sys.Publish(tc.republish.Clone()); err != nil {
						t.Fatal(err)
					}
					reference()
					if sha256.Sum256(ref.Bytes()) == first {
						t.Fatal("the republished image has the first one's digest")
					}
				}
			}
			if tc.gate != nil && tc.retrieves > 1 {
				var wg sync.WaitGroup
				for i := 0; i < tc.retrieves; i++ {
					wg.Add(1)
					go func(i int) { defer wg.Done(); retrieve(i) }(i)
				}
				wg.Wait()
			} else {
				for i := 0; i < tc.retrieves; i++ {
					retrieve(i)
				}
			}
			if tc.gate != nil {
				select {
				case <-pause.Parked():
				default:
					t.Fatal("the first retrieval never read a blob")
				}
			}
			if t.Failed() {
				t.FailNow()
			}
			if n := audit.checked.Load(); n != int64(tc.retrieves) {
				t.Fatalf("%d responses carried a digest trailer, want %d", n, tc.retrieves)
			}
			if st, _ := sys.CacheStats(); tc.check != nil {
				if err := tc.check(st); err != nil {
					t.Fatalf("cache stats %+v: %v", st, err)
				}
			}
		})
	}
}

// flippedBlobs serves one blob faithfully on its first Open and with the
// byte at off flipped on every later one. No repository write happens, so
// the generation a retrieval key carries stays the same while the bytes
// behind it change.
type flippedBlobs struct {
	blobstore.Backend
	id    blobstore.ID
	off   int64
	opens atomic.Int64
}

type flippedReader struct {
	readAtCloser
	off int64
}

func (f *flippedBlobs) Open(id blobstore.ID) (io.ReadCloser, int64, error) {
	rc, size, err := f.Backend.Open(id)
	if err != nil || id != f.id || f.opens.Add(1) == 1 {
		return rc, size, err
	}
	return flippedReader{rc.(readAtCloser), f.off}, size, nil
}

func (r flippedReader) ReadAt(p []byte, off int64) (int, error) {
	n, err := r.readAtCloser.ReadAt(p, off)
	if i := r.off - off; i >= 0 && i < int64(n) {
		p[i] ^= 0xFF
	}
	return n, err
}

// TestRepeatRetrievalDigestGuard: an uncached repeat of a retrieval is sent
// with the digest memoized by the first, guarded by a CRC-32C of what it
// streams. Here the base blob's last byte, in a cluster the assembly never
// writes, flips from the second Open on under an unchanged generation. The
// first retrieval verifies. The second streams the flipped image, fails
// its CRC-32C, and is aborted, so the client reads a truncated stream
// instead of a verified wrong image. The third finds the memo slot
// cleared, hashes what it sends, and verifies.
func TestRepeatRetrievalDigestGuard(t *testing.T) {
	blobs := &flippedBlobs{Backend: blobstore.New()}
	sys := core.NewSystemWithRepo(vmirepo.NewWithBackend(testDevice(), blobs), testDevice(), core.Options{})
	if _, err := sys.Publish(buildTestImage(t, "digest", true, 0)); err != nil {
		t.Fatal(err)
	}
	rec, err := sys.Repo().GetVMI("digest", nil)
	if err != nil {
		t.Fatal(err)
	}
	base, err := sys.Repo().BaseInfo(rec.BaseID)
	if err != nil {
		t.Fatal(err)
	}
	rc, size, err := blobs.Backend.Open(base.BlobID)
	if err != nil {
		t.Fatal(err)
	}
	rc.Close()
	blobs.id, blobs.off = base.BlobID, size-1
	cl, audit := startAudited(t, sys)

	retrieve := func() ([]byte, error) {
		var got bytes.Buffer
		_, _, err := cl.Retrieve(context.Background(), "digest", &got)
		return got.Bytes(), err
	}
	first, err := retrieve()
	if err != nil {
		t.Fatalf("first retrieval: %v", err)
	}
	if _, err := retrieve(); !errors.Is(err, client.ErrTruncated) {
		t.Errorf("second retrieval, flipped under the memoized digest: %v, want ErrTruncated", err)
	}
	third, err := retrieve()
	if err != nil {
		t.Fatalf("third retrieval: %v", err)
	}
	if bytes.Equal(first, third) {
		t.Fatal("the flipped byte never reached the image")
	}
	if n := audit.checked.Load(); n != 2 {
		t.Fatalf("%d responses carried a digest trailer, want 2", n)
	}
}

// lyingBlobs serves every blob with its first byte flipped: bytes that no
// longer match the content ID they are served under.
type lyingBlobs struct{ blobstore.Backend }

func (b lyingBlobs) Open(id blobstore.ID) (io.ReadCloser, int64, error) {
	data, ok := blobstoretest.Get(b.Backend, id)
	if !ok {
		return nil, 0, fmt.Errorf("open %s: %w", id, blobstore.ErrNotFound)
	}
	data[0] ^= 0xFF
	return io.NopCloser(bytes.NewReader(data)), int64(len(data)), nil
}

// TestReplBlobTrailerIsID: the blob route's digest trailer is the blob's
// ID, not a hash of whatever the backend served, so a follower fetching
// bytes that do not match their ID fails with a digest mismatch.
func TestReplBlobTrailerIsID(t *testing.T) {
	payload := []byte("replicated blob payload")
	for _, tc := range []struct {
		name    string
		backend func(blobstore.Backend) blobstore.Backend
		lie     bool
	}{
		{"honest", func(b blobstore.Backend) blobstore.Backend { return b }, false},
		{"lying", func(b blobstore.Backend) blobstore.Backend { return lyingBlobs{b} }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := blobstore.New()
			id, _ := store.Put(payload)
			sys := core.NewSystemWithRepo(vmirepo.NewWithBackend(testDevice(), tc.backend(store)), testDevice(), core.Options{})
			addr, _ := startServer(t, sys)
			cl := client.New(addr, client.Options{Timeout: time.Minute})
			defer cl.Close()
			var got bytes.Buffer
			_, err := cl.ReplBlob(context.Background(), id.String(), &got)
			if !tc.lie {
				if err != nil || !bytes.Equal(got.Bytes(), payload) {
					t.Fatalf("ReplBlob = %q, %v; want the payload", got.Bytes(), err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), "does not match") {
				t.Fatalf("ReplBlob of bytes that do not match their ID = %v, want a digest mismatch", err)
			}
		})
	}
}
