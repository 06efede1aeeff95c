package core

import (
	"slices"
	"sync"
	"testing"

	"expelliarmus/internal/catalog"
	"expelliarmus/internal/vmi"
	"expelliarmus/internal/vmirepo"
)

// buildCatalog builds one image per template name, sequentially (the
// builder is cheap relative to publish, and tests share the resulting
// slice by cloning).
func buildCatalog(t *testing.T, names []string) []*vmi.Image {
	t.Helper()
	_, b := newSystem(t, Options{})
	out := make([]*vmi.Image, len(names))
	for i, n := range names {
		out[i] = buildImage(t, b, n)
	}
	return out
}

func templateNames(n int) []string {
	tpls := catalog.Paper19()
	if n > len(tpls) {
		n = len(tpls)
	}
	names := make([]string, n)
	for i := 0; i < n; i++ {
		names[i] = tpls[i].Name
	}
	return names
}

// eachConcurrently runs fn(0), ..., fn(n-1), each on its own goroutine,
// and waits for all of them.
func eachConcurrently(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}

// firstImageRuns holds, once per test binary, the sequential baselines of
// TestConcurrentPublishSharedRepo. The images share one base class, and
// the class's first publish decomposes the base every later one reuses,
// so a sequential upload's stored bytes depend on which image goes first
// and on nothing else: one run per first image gives every size a
// sequential upload can reach.
var firstImageRuns struct {
	once    sync.Once
	sizes   []int64 // repository size of the run each image leads
	modeled float64 // modeled publish seconds of the catalog-order run
	err     error
}

// sequentialRuns publishes imgs into a fresh System once per choice of
// first image, the rest following in catalog order.
func sequentialRuns(imgs []*vmi.Image) (sizes []int64, modeled float64, err error) {
	for first := range imgs {
		seq := NewSystem(testDev, Options{})
		order := append([]*vmi.Image{imgs[first]}, imgs[:first]...)
		for _, img := range append(order, imgs[first+1:]...) {
			rep, err := seq.Publish(img.Clone())
			if err != nil {
				return nil, 0, err
			}
			if first == 0 {
				modeled += rep.Seconds()
			}
		}
		sizes = append(sizes, seq.Repo().SizeBytes())
	}
	return sizes, modeled, nil
}

// TestConcurrentPublishSharedRepo publishes the catalog from many
// goroutines into one System and checks the repository converges to a
// state a sequential upload reaches: the same stored bytes, every VMI
// retrievable, every package stored exactly once. Which image commits
// first is scheduling, and it alone decides the stored bytes, so the test
// then leads with each image in turn and publishes the rest concurrently:
// each such upload must store exactly the bytes of the sequential upload
// its first image leads.
func TestConcurrentPublishSharedRepo(t *testing.T) {
	names := templateNames(12)
	imgs := buildCatalog(t, names)
	runs := &firstImageRuns
	runs.once.Do(func() { runs.sizes, runs.modeled, runs.err = sequentialRuns(imgs) })
	if runs.err != nil {
		t.Fatal(runs.err)
	}
	s := NewSystem(testDev, Options{})
	reps := make([]*PublishReport, len(imgs))
	eachConcurrently(len(imgs), func(i int) {
		rep, err := s.Publish(imgs[i].Clone())
		if err != nil {
			t.Errorf("publish %s: %v", names[i], err)
			return
		}
		reps[i] = rep
	})
	if t.Failed() {
		return
	}
	var parModeled float64
	for _, rep := range reps {
		parModeled += rep.Seconds()
	}

	// Semantic dedup must hold under concurrency: the shared repository
	// stores exactly the bytes of the sequential upload led by whichever
	// image committed first. Concurrency may add duplicate repack work
	// (two publishes racing on one package) but never removes modeled
	// work wholesale.
	if size := s.Repo().SizeBytes(); !slices.Contains(runs.sizes, size) {
		t.Errorf("concurrent repository %d bytes, no sequential upload reaches it (sizes of the uploads %v lead: %v)",
			size, names, runs.sizes)
	}
	if ratio := parModeled / runs.modeled; ratio < 0.95 || ratio > 1.5 {
		t.Errorf("concurrent modeled %.1fs vs sequential %.1fs (ratio %.3f)", parModeled, runs.modeled, ratio)
	}

	// Cross-publish dedup must hold under concurrency: no package ref may
	// have been stored twice (EnsurePackage guarantees one winner).
	pkgs, err := s.Repo().Packages()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, rec := range pkgs {
		if seen[rec.Pkg.Ref()] {
			t.Fatalf("package %s stored twice", rec.Pkg.Ref())
		}
		seen[rec.Pkg.Ref()] = true
	}

	// Every published VMI must assemble correctly afterwards.
	eachConcurrently(len(names), func(i int) {
		img, rep, err := s.Retrieve(names[i])
		if err != nil {
			t.Errorf("retrieve %s: %v", names[i], err)
			return
		}
		if img.Name != names[i] {
			t.Errorf("retrieved %s, want %s", img.Name, names[i])
		}
		if rep.Seconds() <= 0 {
			t.Errorf("retrieve %s: no modeled cost", names[i])
		}
	})

	for first, img := range imgs {
		led := NewSystem(testDev, Options{})
		if _, err := led.Publish(img.Clone()); err != nil {
			t.Fatal(err)
		}
		eachConcurrently(len(imgs), func(i int) {
			if i == first {
				return
			}
			if _, err := led.Publish(imgs[i].Clone()); err != nil {
				t.Errorf("publish %s after %s: %v", names[i], names[first], err)
			}
		})
		if size := led.Repo().SizeBytes(); size != runs.sizes[first] {
			t.Errorf("led by %s, the concurrent upload stored %d bytes, the sequential one %d", names[first], size, runs.sizes[first])
		}
	}
}

// TestConcurrentPublishRemoveRetrieve mixes publishes, retrievals and
// removals of disjoint image sets from 8+ goroutines over one System. The
// pin set must prevent the GC from collecting packages a concurrent
// publish is counting on.
func TestConcurrentPublishRemoveRetrieve(t *testing.T) {
	names := templateNames(16)
	imgs := buildCatalog(t, names)
	s := NewSystem(testDev, Options{})

	const workers = 8
	perWorker := len(names) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := imgs[w*perWorker : (w+1)*perWorker]
			for round := 0; round < 2; round++ {
				for _, img := range mine {
					if _, err := s.Publish(img.Clone()); err != nil {
						t.Errorf("worker %d publish %s: %v", w, img.Name, err)
						return
					}
				}
				for _, img := range mine {
					got, _, err := s.Retrieve(img.Name)
					if err != nil {
						t.Errorf("worker %d retrieve %s: %v", w, img.Name, err)
						return
					}
					if got.Name != img.Name {
						t.Errorf("worker %d retrieved %s, want %s", w, got.Name, img.Name)
						return
					}
				}
				// Remove the worker's first image, then republish it next
				// round (or leave it removed on the final round for half
				// the workers, exercising GC against live traffic).
				if round == 0 || w%2 == 0 {
					if err := s.Remove(mine[0].Name); err != nil {
						t.Errorf("worker %d remove %s: %v", w, mine[0].Name, err)
						return
					}
				}
				if round == 0 {
					if _, err := s.Publish(mine[0].Clone()); err != nil {
						t.Errorf("worker %d republish %s: %v", w, mine[0].Name, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Surviving VMIs must all be retrievable, and their packages present.
	for _, name := range s.Repo().VMIs() {
		if _, _, err := s.Retrieve(name); err != nil {
			t.Errorf("post-stress retrieve %s: %v", name, err)
		}
	}
}

// TestSnapshotDuringTraffic takes System snapshots while publishes,
// retrievals and removals are in flight; every snapshot must restore to a
// repository whose recorded VMIs are all retrievable.
func TestSnapshotDuringTraffic(t *testing.T) {
	names := templateNames(8)
	imgs := buildCatalog(t, names)
	s := NewSystem(testDev, Options{})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := imgs[w*2 : w*2+2]
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				img := mine[i%2]
				if _, err := s.Publish(img.Clone()); err != nil {
					t.Errorf("worker %d publish %s: %v", w, img.Name, err)
					return
				}
				if _, _, err := s.Retrieve(img.Name); err != nil {
					t.Errorf("worker %d retrieve %s: %v", w, img.Name, err)
					return
				}
				if i%3 == 2 {
					if err := s.Remove(img.Name); err != nil {
						t.Errorf("worker %d remove %s: %v", w, img.Name, err)
						return
					}
				}
			}
		}(w)
	}

	for i := 0; i < 5; i++ {
		snap, err := s.Snapshot()
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		repo, err := vmirepo.Load(snap, testDev)
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		restored := NewSystemWithRepo(repo, testDev, Options{})
		for _, name := range repo.VMIs() {
			if _, _, err := restored.Retrieve(name); err != nil {
				t.Fatalf("snapshot %d: restored VMI %s not retrievable: %v", i, name, err)
			}
		}
	}
	close(stop)
	wg.Wait()
}
