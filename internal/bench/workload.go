// Package bench drives the paper's evaluation (PAPER.md): it rebuilds
// every table and figure of Sec. VI (Table II, Figs. 3a–3c, 4a–4b, 5a–5b)
// against the synthetic workload, plus the ablation studies A1–A4
// (README, "Benchmarks and examples"). Results are modeled numbers and
// carry the paper's reference values alongside; wall-clock questions
// belong to benchmarks/ (expelload). The package's tests additionally
// hold the service-era acceptance scenarios (sync, stream, remote, churn,
// replica, lifecycle), which share the Runner's backend matrix.
package bench

import (
	"fmt"
	"os"
	"strconv"
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
	// never removes them: expelbench leaves them for inspection, tests
	// point StoreRoot at a t.TempDir().
	StoreRoot string
	// CacheBytes enables the retrieval cache on every benchmarked
	// Expelliarmus system (zero, the default, leaves it off). Because the
	// cache is transparent at the cost-model level, every experiment's
	// modeled numbers are identical with it on or off — which the
	// cache-enabled CI leg verifies by rerunning this whole suite.
	CacheBytes int64
	// WALCompactBytes tunes disk-backed systems' metadata-WAL compaction
	// threshold (zero keeps the default). CI's compaction leg sets it to
	// a few KiB so the whole bench suite runs with compactions firing on
	// nearly every sync — results must be identical, since compaction
	// only reorganises durable state.
	WALCompactBytes int64

	mu     sync.Mutex
	opened []*core.System // disk-backed systems to close via CloseAll

	// envErr records a malformed EXPELBENCH_* value from NewRunner; it is
	// surfaced by NewCoreSystem so a typo'd environment fails the run
	// loudly instead of silently benchmarking a different configuration.
	envErr error
}

// NewRunner returns a runner using the paper-calibrated device profile
// scaled to the generated workload. The backend defaults to in-memory but
// honours the EXPELBENCH_BACKEND, EXPELBENCH_STORE_ROOT, EXPELBENCH_CACHE
// (retrieval-cache bytes) and EXPELBENCH_WAL_COMPACT (metadata-WAL
// compaction threshold bytes) environment variables, so the identical
// benchmark (and test) suite can be pointed at the disk store, run
// cache-enabled, or run with aggressive WAL compaction with nothing
// recompiled — CI's disk-backend, cache and compaction legs do exactly
// that.
func NewRunner() *Runner {
	r := &Runner{
		Backend:   os.Getenv("EXPELBENCH_BACKEND"),
		StoreRoot: os.Getenv("EXPELBENCH_STORE_ROOT"),
		Dev:       simio.NewDevice(simio.PaperProfile().Scaled(catalog.ByteScale, catalog.FileScale)),
		WL:        NewWorkload(),
	}
	if v := os.Getenv("EXPELBENCH_CACHE"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			// Do not run cacheless and report green: the cache-enabled CI
			// leg exists to verify cost transparency, so a malformed value
			// must fail the run (via NewCoreSystem), not disable the cache.
			r.envErr = fmt.Errorf("bench: EXPELBENCH_CACHE=%q: %w", v, err)
		}
		r.CacheBytes = n
	}
	if v := os.Getenv("EXPELBENCH_WAL_COMPACT"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			// Same loud-failure rule as above: the compaction leg exists to
			// exercise compaction, so a typo must not silently disable it.
			r.envErr = fmt.Errorf("bench: EXPELBENCH_WAL_COMPACT=%q: %w", v, err)
		}
		r.WALCompactBytes = n
	}
	return r
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
	if r.envErr != nil {
		return nil, r.envErr
	}
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
