package core

import (
	"strings"
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

// TestPublishDeterministicAcrossParallelism publishes the same image into
// fresh repositories at different parallelism settings: the modeled
// seconds, phase decomposition and export report must be identical — the
// knob may change wall-clock time only.
func TestPublishDeterministicAcrossParallelism(t *testing.T) {
	names := []string{"Mini", "Redis", "Base"}
	imgs := buildCatalog(t, names)

	type result struct {
		seconds  float64
		exported string
		skipped  int
	}
	run := func(par int) []result {
		s := NewSystem(testDev, Options{Parallelism: par})
		var out []result
		for _, img := range imgs {
			rep, err := s.Publish(img.Clone())
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, result{
				seconds:  rep.Seconds(),
				exported: strings.Join(rep.Exported, ","),
				skipped:  rep.Skipped,
			})
		}
		return out
	}

	seq := run(0)
	for _, par := range []int{2, 8} {
		got := run(par)
		for i := range seq {
			if got[i] != seq[i] {
				t.Errorf("parallelism=%d image %s: %+v != sequential %+v",
					par, names[i], got[i], seq[i])
			}
		}
	}
}

// TestRetrieveDeterministicAcrossParallelism does the same for retrieval.
func TestRetrieveDeterministicAcrossParallelism(t *testing.T) {
	names := []string{"Mini", "Redis", "Base"}
	imgs := buildCatalog(t, names)

	run := func(par int) []float64 {
		s := NewSystem(testDev, Options{Parallelism: par})
		for _, img := range imgs {
			if _, err := s.Publish(img.Clone()); err != nil {
				t.Fatal(err)
			}
		}
		var out []float64
		for _, n := range names {
			_, rep, err := s.Retrieve(n)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, rep.Seconds())
		}
		return out
	}

	seq := run(0)
	for _, par := range []int{2, 8} {
		got := run(par)
		for i := range seq {
			if got[i] != seq[i] {
				t.Errorf("parallelism=%d retrieve %s: %.6fs != sequential %.6fs",
					par, names[i], got[i], seq[i])
			}
		}
	}
}

// TestConcurrentPublishSharedRepo publishes the catalog from many
// goroutines into one System and checks the repository converges to a
// state equivalent to sequential upload: every VMI retrievable, every
// package stored exactly once.
func TestConcurrentPublishSharedRepo(t *testing.T) {
	names := templateNames(12)
	imgs := buildCatalog(t, names)
	seq := NewSystem(testDev, Options{})
	var seqModeled float64
	for _, img := range imgs {
		rep, err := seq.Publish(img.Clone())
		if err != nil {
			t.Fatal(err)
		}
		seqModeled += rep.Seconds()
	}
	s := NewSystem(testDev, Options{Parallelism: 4})

	reps, err := s.PublishAll(imgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != len(imgs) {
		t.Fatalf("got %d reports, want %d", len(reps), len(imgs))
	}
	var parModeled float64
	for i, rep := range reps {
		if rep == nil || rep.Image != names[i] {
			t.Fatalf("report %d out of order: %+v", i, rep)
		}
		parModeled += rep.Seconds()
	}

	// Semantic dedup must hold under concurrency: the batch repository
	// ends within a few percent of the sequential one (base-image
	// selection may resolve replacement chains slightly differently
	// depending on commit order), and concurrency may add duplicate
	// repack work (two publishes racing on one package) but never removes
	// modeled work wholesale.
	if ratio := float64(s.Repo().SizeBytes()) / float64(seq.Repo().SizeBytes()); ratio < 0.9 || ratio > 1.1 {
		t.Errorf("batch repository %d bytes vs sequential %d (ratio %.3f), dedup degraded",
			s.Repo().SizeBytes(), seq.Repo().SizeBytes(), ratio)
	}
	if ratio := parModeled / seqModeled; ratio < 0.95 || ratio > 1.5 {
		t.Errorf("batch modeled %.1fs vs sequential %.1fs (ratio %.3f)", parModeled, seqModeled, ratio)
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
	retrieved, rreps, err := s.RetrieveAll(names)
	if err != nil {
		t.Fatal(err)
	}
	for i, img := range retrieved {
		if img.Name != names[i] {
			t.Fatalf("retrieved[%d] = %s, want %s", i, img.Name, names[i])
		}
		if rreps[i].Seconds() <= 0 {
			t.Fatalf("retrieve %s: no modeled cost", names[i])
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
	s := NewSystem(testDev, Options{Parallelism: 2})

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
	s := NewSystem(testDev, Options{Parallelism: 2})

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
