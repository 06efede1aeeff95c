package core

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"testing"

	"expelliarmus/internal/blobstore"
	"expelliarmus/internal/builder"
	"expelliarmus/internal/catalog"
	"expelliarmus/internal/simio"
	"expelliarmus/internal/vmi"
	"expelliarmus/internal/vmirepo"
)

var errUnreadBasePut = errors.New("base put failed before reading")

// unreadBasePut is a blob backend whose next put of a base stream, once
// armed, fails before reading a byte of it: the stream's writer is then
// still serializing the stripped base, with nothing ordering its reads
// before whatever the failing publish does next.
type unreadBasePut struct {
	blobstore.Backend
	armed atomic.Bool
}

func (u *unreadBasePut) PutReader(r io.Reader) (blobstore.ID, int64, bool, error) {
	if _, stream := r.(*io.PipeReader); stream && u.armed.CompareAndSwap(true, false) {
		return blobstore.ID{}, 0, false, errUnreadBasePut
	}
	return u.Backend.PutReader(r)
}

// shaOf is the SHA-256 of what a retrieval of name on s writes.
func shaOf(t *testing.T, s *System, name string) string {
	t.Helper()
	h := sha256.New()
	if _, _, err := s.RetrieveTo(h, name); err != nil {
		t.Fatalf("retrieve %s: %v", name, err)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestRecycledArenaChunks: an assembly's disk takes its arena chunks from
// chunkpool and releases them once the image is streamed, and a publish
// that stores a new base releases the stripped base once its stream has
// ended. It runs on one P, so the pool hands the next assembly the very
// chunks just released. A retrieval of A, then of B, which writes more
// clusters than A and so overwrites every chunk A released, must leave A's
// cache entry, the base memo's template (its WriteTo digest) and a fresh
// retrieval of A with their SHA-256; and every image must retrieve as an
// in-process twin, fed the same images, retrieves it. Then a new-base
// publish is followed by B, and on the memory backend a new-base publish
// whose base put fails before reading: under the race detector, a stripped
// base released while its stream still reads it is a reported race.
func TestRecycledArenaChunks(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b := builder.New(catalog.NewUniverse())
	build := func(tpl, name string) *vmi.Image {
		img := buildImage(t, b, tpl)
		img.Name = name
		return img
	}
	a, big := build("Redis", "A"), build("Desktop", "B")
	newBase := build("Mini", "Mini-elsewhere") // a base class of its own,
	newBase.Base.Version += "-elsewhere"       // so its publish streams a new base
	failed := build("Mini", "Mini-failed")
	failed.Base.Version += "-failed"
	for _, backend := range []struct {
		name string
		open func(t *testing.T) (repo *vmirepo.Repo, failNextBasePut func())
	}{
		{"memory", func(t *testing.T) (*vmirepo.Repo, func()) {
			blobs := &unreadBasePut{Backend: blobstore.New()}
			return vmirepo.NewWithBackend(testDev, blobs), func() { blobs.armed.Store(true) }
		}},
		{"disk", func(t *testing.T) (*vmirepo.Repo, func()) {
			repo, err := vmirepo.OpenAt(t.TempDir(), testDev)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { repo.Close() })
			return repo, nil
		}},
	} {
		t.Run(backend.name, func(t *testing.T) {
			repo, failNextBasePut := backend.open(t)
			cold := NewSystemWithRepo(repo, testDev, Options{})
			cached := NewSystemWithRepo(repo, testDev, Options{CacheBytes: 64 << 20})
			twin := NewSystem(testDev, Options{})
			var published []string
			publishBoth := func(img *vmi.Image) {
				t.Helper()
				for _, s := range []*System{cold, twin} {
					if _, err := s.Publish(img); err != nil {
						t.Fatalf("publish %s: %v", img.Name, err)
					}
				}
				published = append(published, img.Name)
			}
			publishBoth(a)
			publishBoth(big)

			wantA := shaOf(t, twin, "A")
			if got := shaOf(t, cold, "A"); got != wantA { // fills cold's base memo
				t.Fatalf("A retrieves as %s, its twin as %s", got, wantA)
			}
			if got := shaOf(t, cached, "A"); got != wantA { // A's cache entry
				t.Fatalf("A's cache miss retrieves as %s, its twin as %s", got, wantA)
			}
			baseID, blobID := baseOf(t, cold, "A")
			template := func() string {
				t.Helper()
				_, rc, _, err := repo.OpenBase(baseID, simio.PhaseCopy, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer rc.Close()
				e := cold.bases.get(blobID)
				if e == nil {
					t.Fatal("the base memo holds no template for A's base")
				}
				h := sha256.New()
				if _, err := e.val.disk.CloneOver("template", rc.(io.ReaderAt)).WriteTo(h); err != nil {
					t.Fatal(err)
				}
				return fmt.Sprintf("%x", h.Sum(nil))
			}
			wantTemplate := template()

			check := func(after string) {
				t.Helper()
				hits := cacheHits(t, cached)
				if got := shaOf(t, cached, "A"); got != wantA {
					t.Fatalf("after %s: A's cache entry reads as %s, want %s", after, got, wantA)
				}
				if hits+1 != cacheHits(t, cached) {
					t.Fatalf("after %s: A was not served from its cache entry", after)
				}
				if got := template(); got != wantTemplate {
					t.Fatalf("after %s: the base memo's template serializes as %s, want %s", after, got, wantTemplate)
				}
				for _, name := range published {
					if got, want := shaOf(t, cold, name), shaOf(t, twin, name); got != want {
						t.Fatalf("after %s: %s retrieves as %s, its twin as %s", after, name, got, want)
					}
				}
			}
			shaOf(t, cold, "B")
			check("A, then B")

			publishBoth(newBase)
			shaOf(t, cold, "B")
			check("a new-base publish, then B")

			if failNextBasePut != nil {
				failNextBasePut()
				if _, err := cold.Publish(failed); !errors.Is(err, errUnreadBasePut) {
					t.Fatalf("publish %s = %v, want its base put to fail", failed.Name, err)
				}
				shaOf(t, cold, "B")
				check("a failed new-base publish, then B")
			}
		})
	}
}

func cacheHits(t *testing.T, s *System) int64 {
	t.Helper()
	st, ok := s.CacheStats()
	if !ok {
		t.Fatal("the system runs without a cache")
	}
	return st.Hits
}
