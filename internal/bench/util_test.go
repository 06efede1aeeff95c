package bench

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"net"
	"net/http"
	"runtime"
	"testing"

	"expelliarmus/internal/catalog"
	"expelliarmus/internal/core"
	"expelliarmus/internal/fstree"
	"expelliarmus/internal/pkgmgr"
	"expelliarmus/internal/server"
	"expelliarmus/internal/vdisk"
	"expelliarmus/internal/vmi"
	"expelliarmus/internal/vmirepo"
)

// newTestRunner returns a memory-backend runner whose disk repositories
// (for scenarios that switch Backend or open their own) live under
// t.TempDir() and are closed, failing the test on a sticky store error,
// before that directory is removed.
func newTestRunner(t *testing.T) *Runner {
	r := NewRunner()
	r.StoreRoot = t.TempDir()
	t.Cleanup(func() {
		if err := r.CloseAll(); err != nil {
			t.Errorf("CloseAll: %v", err)
		}
	})
	return r
}

// TestBackendsRenderIdentically is why expelbench has no backend switch:
// Table II (publish and retrieve of all 19 images) and Fig. 3a (repository
// growth under five schemes) render to the same string on the in-memory
// store, on the disk store, on the disk store with a retrieval cache, and
// on the disk store with a metadata-WAL threshold small enough that nearly
// every sync compacts. The cost model prices logical operations, so where
// the bytes live and how often they are reorganised must not move a digit.
func TestBackendsRenderIdentically(t *testing.T) {
	if testing.Short() {
		t.Skip("backend identity skipped in -short mode")
	}
	render := func(name string, configure func(*Runner)) string {
		r := newTestRunner(t)
		r.WL = sharedRunner.WL // built images are backend-independent
		configure(r)
		tbl, err := r.TableII()
		if err != nil {
			t.Fatalf("%s: Table II: %v", name, err)
		}
		fig, err := r.Fig3a()
		if err != nil {
			t.Fatalf("%s: Fig. 3a: %v", name, err)
		}
		return tbl.String() + "\n" + fig.String()
	}
	want := render("memory", func(*Runner) {})
	for _, tc := range []struct {
		name      string
		configure func(*Runner)
	}{
		{"disk", func(r *Runner) { r.Backend = "disk" }},
		{"disk + cache", func(r *Runner) { r.Backend, r.CacheBytes = "disk", 256<<20 }},
		{"disk + 4 KiB WAL threshold", func(r *Runner) { r.Backend, r.WALCompactBytes = "disk", 4096 }},
	} {
		if got := render(tc.name, tc.configure); got != want {
			t.Errorf("%s renders differently from memory:\n%s\nwant:\n%s", tc.name, got, want)
		}
	}
}

// openDiskSystem opens a system over the disk repository at dir with
// explicit repository options and hands it to r.CloseAll.
func openDiskSystem(t *testing.T, r *Runner, dir string, ro vmirepo.OpenOptions, co core.Options) *core.System {
	t.Helper()
	repo, err := vmirepo.OpenAtOpts(dir, r.Dev, ro)
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	return r.track(core.NewSystemWithRepo(repo, r.Dev, co))
}

// serveLoopback serves sys through cmd/expelserverd's handler on a
// loopback listener until the test ends, and returns its address.
func serveLoopback(t *testing.T, sys *core.System) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: server.New(sys)}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// publishCatalog publishes the templates, in order, into every system.
func publishCatalog(t *testing.T, r *Runner, tpls []catalog.Template, systems ...*core.System) {
	t.Helper()
	for _, tpl := range tpls {
		for _, sys := range systems {
			img, err := r.WL.Image(tpl)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Publish(img); err != nil {
				t.Fatalf("publish %s: %v", tpl.Name, err)
			}
		}
	}
}

// streamSum retrieves name through the streaming path into an O(1)
// hashing sink and returns the stream's length and SHA-256.
func streamSum(t *testing.T, sys *core.System, name string) (int64, string) {
	t.Helper()
	sink := newShaCountWriter()
	if _, _, err := sys.RetrieveTo(sink, name); err != nil {
		t.Fatalf("retrieve %s: %v", name, err)
	}
	return sink.n, sink.sum()
}

// fmtSscanf and fmtSscanfInt are tiny wrappers so test assertions read
// cleanly when parsing rendered table cells.
func fmtSscanf(s string, f *float64) (int, error) { return fmt.Sscanf(s, "%f", f) }

func fmtSscanfInt(s string, i *int) (int, error) { return fmt.Sscanf(s, "%d", i) }

// shaCountWriter consumes a stream without retaining it: the sink of a
// streamed retrieval, costing O(1) memory regardless of stream length.
type shaCountWriter struct {
	h hash.Hash
	n int64
}

func newShaCountWriter() *shaCountWriter { return &shaCountWriter{h: sha256.New()} }

func (w *shaCountWriter) Write(p []byte) (int, error) {
	w.h.Write(p)
	w.n += int64(len(p))
	return len(p), nil
}

func (w *shaCountWriter) sum() string { return fmt.Sprintf("%x", w.h.Sum(nil)) }

// measureAlloc runs fn and returns the bytes it allocated (the
// TotalAlloc delta — cumulative allocation, unaffected by when GC
// happens to run, so the measurement is deterministic for a
// deterministic fn). A GC cycle runs first so leftover garbage from
// earlier phases cannot be attributed to fn.
func measureAlloc(fn func() error) (int64, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err := fn()
	runtime.ReadMemStats(&m1)
	return int64(m1.TotalAlloc - m0.TotalAlloc), err
}

// buildBulkImage constructs a minimal publishable image — the essential
// base OS only, no primaries — carrying `bulk` bytes of opaque payload
// under /opt/bulk. That path is outside package management, outside the
// user-data roots and outside the sysprep reset set, so the payload
// lands in the decomposed base image at publish and flows through the
// base-copy path of every subsequent retrieval: exactly the traffic the
// streaming plumbing is supposed to carry at O(1) memory.
func buildBulkImage(name string, bulk int64) (*vmi.Image, error) {
	uni := catalog.NewUniverse()
	names, err := pkgmgr.Closure(uni, uni.EssentialNames())
	if err != nil {
		return nil, fmt.Errorf("bench: stream closure: %w", err)
	}
	var contentReal int64
	realFiles := 0
	for _, n := range names {
		spec, _ := uni.Spec(n)
		contentReal += catalog.Real(spec.InstalledSize)
		realFiles += catalog.RealFiles(spec.FileCount) + 1
	}
	// The workload's tiny paper-scale cluster size (256 B) would make the
	// per-cluster directory of a lazily opened image cost ~20% of the
	// image itself; bulk images use 4 KiB clusters (the vdisk default,
	// carried in the image header) so directory overhead is ~0.1%.
	const clusterSize = vdisk.DefaultClusterSize
	maxInodes := uint32(realFiles+realFiles/4+128) + 512
	virtualSize := contentReal*3 + bulk + bulk/8 + int64(maxInodes)*64*2 + 8<<20
	virtualSize = (virtualSize + clusterSize - 1) / clusterSize * clusterSize

	disk := vdisk.New(name, virtualSize, clusterSize)
	fs, err := fstree.Format(disk, maxInodes)
	if err != nil {
		return nil, fmt.Errorf("bench: stream format: %w", err)
	}
	mgr, err := pkgmgr.New(fs)
	if err != nil {
		return nil, err
	}
	order, err := pkgmgr.InstallOrder(uni, names)
	if err != nil {
		return nil, err
	}
	for _, group := range order {
		for _, n := range group {
			spec, _ := uni.Spec(n)
			files, err := uni.FilesFor(n)
			if err != nil {
				return nil, err
			}
			if err := mgr.InstallPackage(spec.Package, files); err != nil {
				return nil, fmt.Errorf("bench: stream install %s: %w", n, err)
			}
		}
	}
	if err := fs.MkdirAll("/opt/bulk"); err != nil {
		return nil, err
	}
	if err := fs.WriteFile("/opt/bulk/payload.bin", catalog.GenContent(0xB07B+uint64(bulk), int(bulk))); err != nil {
		return nil, fmt.Errorf("bench: stream payload: %w", err)
	}
	return &vmi.Image{
		Name: name,
		Base: uni.Release().Base,
		Disk: disk,
	}, nil
}
