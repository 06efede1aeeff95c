package core

import (
	"bytes"
	"math"
	"math/rand"
	"sync"
	"testing"

	"expelliarmus/internal/blobstore"
	"expelliarmus/internal/pkgmgr"
	"expelliarmus/internal/vmi"
	"expelliarmus/internal/vmirepo"
)

func newTestPkgMemo(budget int64) *pkgMemo {
	return newBudgetMemo[blobstore.ID, extracted](pkgMemoSlots, budget)
}

// memoHeld sums the weights of the entries m's slots hold and returns
// them with the entries' count.
func memoHeld[K comparable, V any](m *slotMemo[K, V]) (weight int64, entries int) {
	for i := range m.slots {
		if e := m.slots[i].Load(); e != nil {
			weight += e.weight
			entries++
		}
	}
	return weight, entries
}

// checkHeld requires m's running weight to be what its entries weigh, and
// no more than its budget.
func checkHeld[K comparable, V any](t *testing.T, m *slotMemo[K, V]) {
	t.Helper()
	weight, _ := memoHeld(m)
	if held := m.held.Load(); held != weight || held > m.budget {
		t.Fatalf("the memo counts %d bytes held, its entries weigh %d, its budget is %d", held, weight, m.budget)
	}
}

// TestPkgMemoHitMatchesMiss: every catalog template, installed from a
// package memo that earlier retrievals filled, is byte for byte the
// retrieval that extracted each package itself — on the memory and the
// disk backend.
func TestPkgMemoHitMatchesMiss(t *testing.T) {
	hitsMatchMisses(t, func(s *System) {
		s.packages = newTestPkgMemo(pkgMemoBudget)
	}, func(t *testing.T, s *System) {
		if _, n := memoHeld(s.packages); n == 0 {
			t.Fatal("the retrievals stored no package in the memo")
		}
		checkHeld(t, s.packages)
	})
}

// pkgBlob returns the ref and the blob ID of the stored package name.
func pkgBlob(t *testing.T, repo *vmirepo.Repo, name string) (string, blobstore.ID) {
	t.Helper()
	pkgs, err := repo.Packages()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range pkgs {
		if rec.Pkg.Name == name {
			return rec.Pkg.Ref(), rec.BlobID
		}
	}
	t.Fatalf("package %s is not stored", name)
	return "", blobstore.ID{}
}

// changeOwnedFile appends to the first file the image's package name owns.
func changeOwnedFile(t *testing.T, img *vmi.Image, name string) {
	t.Helper()
	fs, err := img.Mount()
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := pkgmgr.Load(fs)
	if err != nil {
		t.Fatal(err)
	}
	files, err := mgr.OwnedFiles(name)
	if err != nil || len(files) == 0 {
		t.Fatalf("%s owns %d files: %v", name, len(files), err)
	}
	data, err := fs.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(files[0], append(data, " rebuilt"...)); err != nil {
		t.Fatal(err)
	}
}

// TestPkgMemoFollowsReplacedBlob: the package memo is keyed by the
// package's blob, not its ref. Removing the only image that holds a
// package, vacuuming and publishing it again with a changed file stores a
// new blob under the same ref; retrieving the image must install the new
// blob's files, not the memo's extraction of the old one.
func TestPkgMemoFollowsReplacedBlob(t *testing.T) {
	s, b := newSystem(t, Options{})
	if _, err := s.Publish(buildImage(t, b, "Redis")); err != nil {
		t.Fatal(err)
	}
	oldRef, oldBlob := pkgBlob(t, s.repo, "redis-server")
	retrieveBytes(t, s, "Redis")
	if _, n := memoHeld(s.packages); n == 0 {
		t.Fatal("setup: the retrieval stored no package in the memo")
	}
	if err := s.Remove("Redis"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Vacuum(); err != nil {
		t.Fatal(err)
	}
	if s.repo.HasPackage(oldRef, nil) {
		t.Fatalf("setup: %s is still stored after remove and vacuum", oldRef)
	}
	img := buildImage(t, b, "Redis")
	changeOwnedFile(t, img, "redis-server")
	if _, err := s.Publish(img); err != nil {
		t.Fatal(err)
	}
	newRef, newBlob := pkgBlob(t, s.repo, "redis-server")
	if newRef != oldRef || newBlob == oldBlob {
		t.Fatalf("setup: %s blob %x replaced by %s blob %x; want the same ref on a new blob",
			oldRef, oldBlob[:4], newRef, newBlob[:4])
	}
	want := retrieveBytes(t, NewSystemWithRepo(s.repo, testDev, Options{}), "Redis")
	if got := retrieveBytes(t, s, "Redis"); !bytes.Equal(got, want) {
		t.Fatal("a retrieval after the package blob was replaced under its ref installed the old blob")
	}
}

// TestPkgMemoConcurrentFill is TestBaseMemoConcurrentFill on a system
// whose base memo is full and whose package memo is empty: the swept
// retrievals race to fill the package memo alone.
func TestPkgMemoConcurrentFill(t *testing.T) {
	memoFillSweep(t, func(s *System) {
		retrieveBytes(t, s, "Redis")
		s.packages = newTestPkgMemo(pkgMemoBudget)
	})
}

// TestPkgMemoBudgetHolds: the entries of a budgeted memo never weigh more
// than its budget, even while puts race, and its running weight is what
// its entries weigh once they stop. A package heavier than the budget is
// installed unmemoized, and every image is still its own bytes.
func TestPkgMemoBudgetHolds(t *testing.T) {
	t.Run("racing puts", func(t *testing.T) {
		m := newBudgetMemo[int, int](64, 5000)
		var wg sync.WaitGroup
		stop := make(chan struct{})
		over := make(chan int64, 1)
		go func() {
			defer close(over)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if held := m.held.Load(); held > m.budget {
					over <- held
					return
				}
			}
		}()
		for g := range 8 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g)))
				for range 2000 {
					m.putWeighed(rng.Intn(256), g, 1+rng.Int63n(400))
				}
			}()
		}
		wg.Wait()
		close(stop)
		if held, ok := <-over; ok {
			t.Fatalf("the memo held %d bytes, over its budget of %d", held, m.budget)
		}
		checkHeld(t, m)
	})
	t.Run("heavier than the budget", func(t *testing.T) {
		s, b := newSystem(t, Options{})
		names := []string{"Redis", "Base", "Lapp", "Tomcat"}
		for _, n := range names {
			if _, err := s.Publish(buildImage(t, b, n)); err != nil {
				t.Fatal(err)
			}
		}
		s.packages = newTestPkgMemo(math.MaxInt64)
		want := map[string][]byte{}
		for _, n := range names {
			want[n] = retrieveBytes(t, s, n)
		}
		var heaviest *memoEntry[blobstore.ID, extracted]
		for i := range s.packages.slots {
			if e := s.packages.slots[i].Load(); e != nil && (heaviest == nil || e.weight > heaviest.weight) {
				heaviest = e
			}
		}
		s.packages = newTestPkgMemo(heaviest.weight - 1)
		for round := range 2 {
			for _, n := range names {
				if got := retrieveBytes(t, s, n); !bytes.Equal(got, want[n]) {
					t.Fatalf("round %d: %s through the budgeted memo differs from its unbudgeted retrieval", round, n)
				}
			}
		}
		if s.packages.get(heaviest.key) != nil {
			t.Fatalf("a package of %d bytes was memoized under a budget of %d", heaviest.weight, s.packages.budget)
		}
		if _, n := memoHeld(s.packages); n == 0 {
			t.Fatal("the budget kept every package out of the memo")
		}
		checkHeld(t, s.packages)
	})
}
