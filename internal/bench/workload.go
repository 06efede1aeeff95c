// Package bench drives the paper's evaluation (PAPER.md): it rebuilds
// every table and figure of Sec. VI (Table II, Figs. 3a–3c, 4a–4b, 5a–5b)
// against the synthetic workload, plus the ablation studies A1–A4
// (README, "Benchmarks and examples"). Results are modeled numbers and
// carry the paper's reference values alongside; wall-clock questions
// belong to benchmarks/ (expelload). The package's tests additionally
// hold the service-era acceptance scenarios (sync, stream, remote, churn,
// replica, lifecycle), which build their systems through the Runner.
package bench

import (
	"fmt"
	"os"
	"sync"

	"expelliarmus/internal/builder"
	"expelliarmus/internal/catalog"
	"expelliarmus/internal/core"
	"expelliarmus/internal/simio"
	"expelliarmus/internal/stores"
	"expelliarmus/internal/vmi"
	"expelliarmus/internal/vmirepo"
)

// Workload builds and caches evaluation images. Images are expensive to
// build (hundreds of package installs each), so every experiment shares
// one cache and publishes clones.
type Workload struct {
	mu     sync.Mutex
	b      *builder.Builder
	images map[string]*vmi.Image
}

// NewWorkload returns an empty workload cache over a fresh universe.
func NewWorkload() *Workload {
	return &Workload{
		b:      builder.New(catalog.NewUniverse()),
		images: map[string]*vmi.Image{},
	}
}

// Builder exposes the underlying image builder.
func (w *Workload) Builder() *builder.Builder { return w.b }

// Image returns a clone of the built template image, building on first use.
func (w *Workload) Image(t catalog.Template) (*vmi.Image, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if img, ok := w.images[t.Name]; ok {
		return img.Clone(), nil
	}
	img, err := w.b.Build(t)
	if err != nil {
		return nil, fmt.Errorf("bench: build %s: %w", t.Name, err)
	}
	w.images[t.Name] = img
	return img.Clone(), nil
}

// Runner executes experiments on one device profile and workload.
type Runner struct {
	Dev *simio.Device
	WL  *Workload

	// Backend selects the blob backend every benchmarked Expelliarmus
	// system runs on: "" or "memory" for the in-memory sharded store,
	// "disk" for the durable segment-file store — so any experiment can be
	// rerun against either backend with nothing else changed.
	Backend string
	// StoreRoot is where disk-backed repositories are created (one fresh
	// subdirectory per system); empty means the OS temp dir. The runner
	// never removes them: tests point StoreRoot at a t.TempDir().
	StoreRoot string
	// CacheBytes enables the retrieval cache on every benchmarked
	// Expelliarmus system (zero, the default, leaves it off). The cache is
	// transparent at the cost-model level, so every experiment's modeled
	// numbers are identical with it on or off.
	CacheBytes int64
	// WALCompactBytes tunes disk-backed systems' metadata-WAL compaction
	// threshold (zero keeps the default). A few KiB makes nearly every
	// sync compact — results must be identical, since compaction only
	// reorganises durable state.
	WALCompactBytes int64

	mu     sync.Mutex
	opened []*core.System // disk-backed systems to close via CloseAll
}

// NewRunner returns a runner on the in-memory backend using the
// paper-calibrated device profile scaled to the generated workload. The
// modeled numbers are the same on every backend — the package's
// TestBackendsRenderIdentically holds the disk store, the retrieval cache
// and aggressive WAL compaction to that — so expelbench has no switch for
// them; the Backend, CacheBytes and WALCompactBytes fields are that
// test's.
func NewRunner() *Runner {
	return &Runner{
		Dev: simio.NewDevice(simio.PaperProfile().Scaled(catalog.ByteScale, catalog.FileScale)),
		WL:  NewWorkload(),
	}
}

// newDiskRepo creates a fresh disk-backed repository in its own
// directory under StoreRoot (or the OS temp dir), honouring the runner's
// WALCompactBytes.
func (r *Runner) newDiskRepo() (*vmirepo.Repo, error) {
	root := r.StoreRoot
	if root == "" {
		root = os.TempDir()
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, "expelbench-repo-")
	if err != nil {
		return nil, err
	}
	return vmirepo.OpenAtOpts(dir, r.Dev, vmirepo.OpenOptions{WALCompactBytes: r.WALCompactBytes})
}

// NewCoreSystem creates a fresh Expelliarmus core system over the
// runner's selected backend, with the runner's retrieval-cache budget
// unless the experiment set its own. Disk-backed systems are tracked;
// call CloseAll when the experiments are done so sticky I/O failures
// surface and file handles are released.
func (r *Runner) NewCoreSystem(opts core.Options) (*core.System, error) {
	if opts.CacheBytes == 0 {
		opts.CacheBytes = r.CacheBytes
	}
	switch r.Backend {
	case "", "memory":
		return core.NewSystem(r.Dev, opts), nil
	case "disk":
		repo, err := r.newDiskRepo()
		if err != nil {
			return nil, err
		}
		return r.track(core.NewSystemWithRepo(repo, r.Dev, opts)), nil
	default:
		return nil, fmt.Errorf("bench: unknown backend %q (memory|disk)", r.Backend)
	}
}

// track registers a disk-backed system for CloseAll.
func (r *Runner) track(sys *core.System) *core.System {
	r.mu.Lock()
	r.opened = append(r.opened, sys)
	r.mu.Unlock()
	return sys
}

// CloseAll syncs and closes every disk-backed system the runner created,
// returning the first error — the place a disk store's sticky I/O failure
// (e.g. a full filesystem mid-benchmark) finally surfaces instead of the
// results silently reflecting a partial store.
func (r *Runner) CloseAll() error {
	r.mu.Lock()
	opened := r.opened
	r.opened = nil
	r.mu.Unlock()
	var first error
	for _, sys := range opened {
		if err := sys.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// newExpel wraps a fresh backend-selected system in the Store adapter the
// comparison harness consumes.
func (r *Runner) newExpel(opts core.Options) (*stores.Expel, error) {
	sys, err := r.NewCoreSystem(opts)
	if err != nil {
		return nil, err
	}
	return stores.NewExpelWithSystem(sys), nil
}

// paperGB converts real bytes to paper-equivalent gigabytes.
func paperGB(realBytes int64) float64 {
	return float64(catalog.Paper(realBytes)) / 1e9
}
