package server_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"expelliarmus/internal/blobstore"
	"expelliarmus/internal/builder"
	"expelliarmus/internal/catalog"
	"expelliarmus/internal/client"
	"expelliarmus/internal/core"
	"expelliarmus/internal/fsx"
	"expelliarmus/internal/vdisk"
	"expelliarmus/internal/vmi"
	"expelliarmus/internal/vmirepo"
	"expelliarmus/internal/wire"
)

var errInjectedPut = errors.New("injected base put failure")

// failingBasePut is a blob backend whose next streamed put of a serialized
// disk, once armed, reads the first MiB of it whole writes at a time and
// fails, leaving the stream's writer free to go on to its next lazy read.
type failingBasePut struct {
	blobstore.Backend
	armed atomic.Bool
}

func (f *failingBasePut) PutReader(r io.Reader) (blobstore.ID, int64, bool, error) {
	head := make([]byte, len(vdisk.Magic))
	n, _ := io.ReadFull(r, head)
	if !f.armed.Load() || !bytes.Equal(head[:n], vdisk.Magic) {
		return f.Backend.PutReader(io.MultiReader(bytes.NewReader(head[:n]), r))
	}
	f.armed.Store(false)
	buf := make([]byte, 1<<20) // larger than any one write of the stream
	for read := 0; read < 1<<20; {
		m, err := r.Read(buf)
		if read += m; err != nil {
			break
		}
	}
	return blobstore.ID{}, 0, false, errInjectedPut
}

// TestRecycledUploadChunks: a publish's upload is received into pooled
// chunks, released when the publish returns and handed to the next
// upload. It runs on one P, so the pool hands the next upload the very
// chunks just released. For a new-base image and a same-base variant A,
// it publishes A over HTTP, then B, whose larger upload overwrites A's
// chunks; every image published so far must still retrieve with the
// digest an in-process twin, fed the same images, gives it. Then a
// new-base publish whose base put fails after its first MiB is followed by
// B again: under the race detector, a base stream still reading the failed
// upload's chunks when B overwrites them is a reported race.
func TestRecycledUploadChunks(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b := builder.New(catalog.NewUniverse())
	build := func(tpl, name string, userData int) *vmi.Image {
		t.Helper()
		tp, ok := catalog.Find(tpl)
		if !ok {
			t.Fatalf("template %s not found", tpl)
		}
		img, err := b.Build(tp)
		if err != nil {
			t.Fatal(err)
		}
		img.Name = name
		if userData > 0 {
			fs, err := img.Mount()
			if err != nil {
				t.Fatal(err)
			}
			if err := fs.MkdirAll("/home/user"); err != nil {
				t.Fatal(err)
			}
			if err := fs.WriteFile("/home/user/"+name+".bin", catalog.GenContent(uint64(len(name)), userData)); err != nil {
				t.Fatal(err)
			}
		}
		return img
	}
	newBase := build("Redis", "Redis", 0)               // the first publish stores its base
	sameBase := build("Redis", "Redis-variant", 64<<10) // clusters on Redis's base
	overwriter := build("Django", "B", 1<<20)           // more chunks than either
	failed := build("Mini", "Mini-elsewhere", 0)        // a base class of its own,
	failed.Base.Version += "-elsewhere"                 // so its publish streams a new base
	for _, backend := range []struct {
		name string
		open func(t *testing.T) (sys *core.System, failNextBasePut func())
	}{
		{"memory", func(t *testing.T) (*core.System, func()) {
			blobs := &failingBasePut{Backend: blobstore.New()}
			return core.NewSystemWithRepo(vmirepo.NewWithBackend(testDevice(), blobs), testDevice(), core.Options{}),
				func() { blobs.armed.Store(true) }
		}},
		{"disk", func(t *testing.T) (*core.System, func()) {
			fault := fsx.NewFault()
			repo, err := vmirepo.OpenAtOpts(t.TempDir(), testDevice(), vmirepo.OpenOptions{FS: fault})
			if err != nil {
				t.Fatal(err)
			}
			sys := core.NewSystemWithRepo(repo, testDevice(), core.Options{})
			t.Cleanup(func() { sys.Close() })
			// A streamed put past 1 MiB spills to a put-*.tmp file: its
			// first write is the buffered MiB, its second the next write
			// of the stream, which fails.
			return sys, func() { fault.Inject(fsx.ShortWrite, 2, "put-") }
		}},
	} {
		t.Run(backend.name, func(t *testing.T) {
			sys, failNextBasePut := backend.open(t)
			twin := core.NewSystem(testDevice(), core.Options{})
			addr, _ := startServer(t, sys)
			cl := client.New(addr, client.Options{Timeout: 2 * time.Minute})
			defer cl.Close()
			ctx := context.Background()
			publish := func(img *vmi.Image) error {
				_, err := cl.Publish(ctx, func(w io.Writer) error { return wire.WriteImage(w, img) })
				return err
			}
			var published []string
			publishBoth := func(img *vmi.Image) {
				t.Helper()
				if err := publish(img); err != nil {
					t.Fatalf("publish %s: %v", img.Name, err)
				}
				if _, err := twin.Publish(img); err != nil {
					t.Fatal(err)
				}
				if !slices.Contains(published, img.Name) {
					published = append(published, img.Name)
				}
			}
			check := func(after string) {
				t.Helper()
				for _, name := range published {
					want := newShaCounter()
					if _, _, err := twin.RetrieveTo(want, name); err != nil {
						t.Fatal(err)
					}
					got := newShaCounter()
					if _, _, err := cl.Retrieve(ctx, name, got); err != nil {
						t.Fatalf("after %s: retrieve %s: %v", after, name, err)
					}
					if got.sum() != want.sum() {
						t.Fatalf("after %s: %s retrieves as %s, its twin as %s", after, name, got.sum(), want.sum())
					}
				}
			}
			for _, a := range []*vmi.Image{newBase, sameBase} {
				publishBoth(a)
				publishBoth(overwriter)
				check(a.Name + ", then B")
			}
			failNextBasePut()
			if err := publish(failed); err == nil || !strings.Contains(err.Error(), "store base") {
				t.Fatalf("publish %s = %v, want its base put to fail", failed.Name, err)
			}
			publishBoth(overwriter)
			check("a failed publish, then B")
		})
	}
}
