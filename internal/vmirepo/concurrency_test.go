package vmirepo

import (
	"errors"
	"fmt"
	"maps"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"expelliarmus/internal/catalog"
	"expelliarmus/internal/pkgmeta"
	"expelliarmus/internal/simio"
)

// TestNotFoundSentinel pins the error contract callers rely on: every
// missing-record lookup must wrap ErrNotFound.
func TestNotFoundSentinel(t *testing.T) {
	r := testRepo()
	if _, _, err := getPackage(r, "nope", simio.PhaseFetch, nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("OpenPackage error %v does not wrap ErrNotFound", err)
	}
	if _, err := getBase(r, "nope", simio.PhaseCopy, nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("GetBase error %v does not wrap ErrNotFound", err)
	}
	if _, err := r.GetMaster("nope", nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("GetMaster error %v does not wrap ErrNotFound", err)
	}
	if _, err := r.GetVMI("nope", nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("GetVMI error %v does not wrap ErrNotFound", err)
	}
	if err := r.RemovePackage("nope", nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("RemovePackage error %v does not wrap ErrNotFound", err)
	}
	if err := r.RemoveBase("nope", nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("RemoveBase error %v does not wrap ErrNotFound", err)
	}
}

func testRepo() *Repo {
	dev := simio.NewDevice(simio.PaperProfile().Scaled(catalog.ByteScale, catalog.FileScale))
	return New(dev)
}

func testPkg(name string) pkgmeta.Package {
	return pkgmeta.Package{
		Name: name, Version: "1.0", Arch: "amd64", Distro: "ubuntu",
		Section: "apps", InstalledSize: 1 << 20,
	}
}

// TestEnsurePackageRace races many goroutines ensuring the same package:
// exactly one may report stored=true, and the blob refcount must end at
// exactly one so a later remove fully reclaims the space.
func TestEnsurePackageRace(t *testing.T) {
	r := testRepo()
	p := testPkg("contended")
	blob := []byte("identical package payload")
	const workers = 16
	var stored int32
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := &simio.Meter{}
			ok, err := r.EnsurePackage(p, blob, m)
			if err != nil {
				t.Error(err)
				return
			}
			if ok {
				mu.Lock()
				stored++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if stored != 1 {
		t.Fatalf("stored %d times, want exactly 1", stored)
	}
	if !r.HasPackage(p.Ref(), nil) {
		t.Fatal("package missing after ensure")
	}
	if err := r.RemovePackage(p.Ref(), nil); err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().BlobBytes; got != 0 {
		t.Fatalf("blob bytes = %d after removal, want 0 (refcount leak)", got)
	}
}

// TestConcurrentDistinctPackages stores distinct packages from many
// goroutines; all must be present afterwards with exact byte accounting.
func TestConcurrentDistinctPackages(t *testing.T) {
	r := testRepo()
	const workers = 8
	const perWorker = 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				p := testPkg(fmt.Sprintf("pkg-%d-%d", w, i))
				blob := []byte(fmt.Sprintf("payload of pkg-%d-%d", w, i))
				ok, err := r.EnsurePackage(p, blob, &simio.Meter{})
				if err != nil || !ok {
					t.Errorf("pkg-%d-%d: stored=%v err=%v", w, i, ok, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Stats().Packages; got != workers*perWorker {
		t.Fatalf("packages = %d, want %d", got, workers*perWorker)
	}
	pkgs, err := r.Packages()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range pkgs {
		if _, _, err := getPackage(r, rec.Pkg.Ref(), simio.PhaseFetch, nil); err != nil {
			t.Fatalf("get %s: %v", rec.Pkg.Ref(), err)
		}
	}
}

// TestSnapshotConsistentUnderTraffic takes snapshots while packages are
// being stored; every snapshot must Load and every loaded package record
// must have its blob (the blob/db sections are mutually consistent).
//
// The writers spend tokens the verifier hands out before each pass, so the
// records a pass has to check are bounded by construction (at most passes x
// tokens) however fast the writers are relative to the verifier.
func TestSnapshotConsistentUnderTraffic(t *testing.T) {
	r := testRepo()
	const writers, passes, opsPerPass = 4, 15, 400
	tokens := make(chan struct{}, opsPerPass)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := 0
			for range tokens {
				p := testPkg(fmt.Sprintf("traffic-%d-%d", w, i))
				blob := []byte(fmt.Sprintf("blob %d %d", w, i))
				if _, err := r.EnsurePackage(p, blob, nil); err != nil {
					t.Error(err)
					return
				}
				i++
			}
		}(w)
	}
	dev := simio.NewDevice(simio.PaperProfile())
	for i := 0; i < passes; i++ {
		refill(tokens)
		snap, err := r.Snapshot()
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		restored, err := Load(snap, dev)
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		pkgs, err := restored.Packages()
		if err != nil {
			t.Fatalf("snapshot %d: packages: %v", i, err)
		}
		for _, rec := range pkgs {
			if _, _, err := getPackage(restored, rec.Pkg.Ref(), simio.PhaseFetch, nil); err != nil {
				t.Fatalf("snapshot %d: record %s has no blob: %v", i, rec.Pkg.Ref(), err)
			}
		}
	}
	close(tokens)
	wg.Wait()
}

// refill tops a token channel up to its capacity without blocking.
func refill(tokens chan struct{}) {
	for {
		select {
		case tokens <- struct{}{}:
		default:
			return
		}
	}
}

// TestPutUserDataReplaceReclaims republishes user data under one name and
// checks the old archive's bytes are reclaimed, including the
// identical-content case.
func TestPutUserDataReplaceReclaims(t *testing.T) {
	r := testRepo()
	putUserData(r, "vmi", []byte("first archive"), nil)
	first := r.Stats().BlobBytes
	putUserData(r, "vmi", []byte("second archive, a bit longer"), nil)
	second := r.Stats().BlobBytes
	if second != int64(len("second archive, a bit longer")) {
		t.Fatalf("blob bytes = %d after replace, want only the new archive (old was %d)", second, first)
	}
	// Identical content: the refcount must stay at one.
	putUserData(r, "vmi", []byte("second archive, a bit longer"), nil)
	if got := r.Stats().BlobBytes; got != second {
		t.Fatalf("blob bytes = %d after identical republish, want %d", got, second)
	}
	if err := r.RemoveUserData("vmi", nil); err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().BlobBytes; got != 0 {
		t.Fatalf("blob bytes = %d after removal, want 0", got)
	}
}

// TestRewireVMIsDoesNotClobberConcurrentRepublish races base rewires
// against republishes of one affected VMI name onto a different base (as
// a concurrent publish of another attribute class would commit under the
// core's striped commit locks — its commit stripe does not exclude this
// one). The rewire's per-record compare-and-rewrite must leave a
// republished record alone; the corrupt outcome an unguarded rewrite
// produces is the rewire's base spliced onto the republish's primaries.
// Many sibling records keep rewires in flight long enough for the
// republisher to land inside the scan-to-rewrite window, and a checker
// goroutine asserts no reader can ever observe a spliced record.
func TestRewireVMIsDoesNotClobberConcurrentRepublish(t *testing.T) {
	r := testRepo()
	const siblings = 400
	const rounds = 200
	victim := fmt.Sprintf("vmi-%04d", siblings)
	for j := 0; j <= siblings; j++ {
		r.PutVMI(VMIRecord{Name: fmt.Sprintf("vmi-%04d", j), BaseID: "oldA", Primaries: []string{"primsA"}}, nil)
	}

	var wg sync.WaitGroup
	wg.Add(2)
	done := make(chan struct{})
	rewiresDone := make(chan struct{})
	go func() { // rewirer: ping-pongs every oldA/newA record
		defer wg.Done()
		defer close(rewiresDone)
		for i := 0; i < rounds; i++ {
			r.RewireVMIs("oldA", "newA", nil)
			r.RewireVMIs("newA", "oldA", nil)
		}
	}()
	go func() { // republisher: toggles the victim onto and off a foreign base
		// for as long as rewires are in flight, so the toggles keep
		// landing inside scan-to-rewrite windows.
		defer wg.Done()
		for {
			select {
			case <-rewiresDone:
				return
			default:
			}
			r.PutVMI(VMIRecord{Name: victim, BaseID: "baseB", Primaries: []string{"primsB"}}, nil)
			r.PutVMI(VMIRecord{Name: victim, BaseID: "oldA", Primaries: []string{"primsA"}}, nil)
		}
	}()
	go func() { wg.Wait(); close(done) }()

	// Invariant: primaries always belong to the base family the record
	// names. A rewire splicing newA/oldA onto primsB (or leaving primsA
	// under baseB) is the corruption the guard exists to prevent.
	check := func() {
		rec, err := r.GetVMI(victim, nil)
		if err != nil {
			t.Errorf("victim vanished: %v", err)
			return
		}
		prims := strings.Join(rec.Primaries, ",")
		switch rec.BaseID {
		case "oldA", "newA":
			if prims != "primsA" {
				t.Errorf("rewire spliced base %s onto foreign primaries %q", rec.BaseID, prims)
			}
		case "baseB":
			if prims != "primsB" {
				t.Errorf("republished record lost its primaries: %q", prims)
			}
		default:
			t.Errorf("victim on unexpected base %q", rec.BaseID)
		}
	}
	for {
		select {
		case <-done:
			check()
			return
		default:
			check()
			if t.Failed() {
				return
			}
		}
	}
}

// TestConcurrentCountsExact: package refcounts and tenant totals are
// updated with no lock above the bucket's own, one atomic Update per key.
// Concurrent adds, drops and charges over shared keys must land on the
// arithmetic totals, and a count dropped to zero by racing goroutines must
// be reported dead by exactly one of them.
func TestConcurrentCountsExact(t *testing.T) {
	r := testRepo()
	refs := []string{"a=1/amd64", "b=1/amd64", "c=1/amd64", "d=1/amd64"}
	tenants := []string{"t0", "t1", "t2"}
	const workers, rounds = 8, 200
	wantRefs := map[string]int64{}
	wantTenants := map[string]int64{}
	for w := 0; w < workers; w++ {
		for _, ref := range refs[w%2 : w%2+3] {
			wantRefs[ref] += rounds // two adds and one drop per round
		}
		for i := 0; i < rounds; i++ {
			wantTenants[tenants[(w+i)%len(tenants)]] += int64(w%3) + 1
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := refs[w%2 : w%2+3]
			for i := 0; i < rounds; i++ {
				// Each goroutine adds before it drops and charges before it
				// credits, so no count it touches is ever below its own
				// outstanding share: a drop or credit never meets an
				// absent key, though the total may pass through zero.
				if err := r.AddPackageRefs(mine, nil); err != nil {
					t.Error(err)
					return
				}
				if _, err := r.DropPackageRefs(mine, nil); err != nil {
					t.Error(err)
					return
				}
				if err := r.AddPackageRefs(mine, nil); err != nil {
					t.Error(err)
					return
				}
				tenant := tenants[(w+i)%len(tenants)]
				delta := int64(w%3) + 1
				if err := r.ChargeTenant(tenant, delta+2, nil); err != nil {
					t.Error(err)
					return
				}
				if err := r.ChargeTenant(tenant, -2, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.PackageRefs(); !maps.Equal(got, wantRefs) {
		t.Fatalf("PackageRefs = %v, want %v", got, wantRefs)
	}
	if got := r.TenantStats(); !maps.Equal(got, wantTenants) {
		t.Fatalf("TenantStats = %v, want %v", got, wantTenants)
	}

	// A ref at k, dropped once by each of k goroutines, dies exactly once.
	const shared = "z=1/amd64"
	for w := 0; w < workers; w++ {
		if err := r.AddPackageRefs([]string{shared}, nil); err != nil {
			t.Fatal(err)
		}
	}
	var deaths atomic.Int32
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dead, err := r.DropPackageRefs([]string{shared}, nil)
			if err != nil {
				t.Error(err)
				return
			}
			deaths.Add(int32(len(dead)))
		}()
	}
	wg.Wait()
	if n := deaths.Load(); n != 1 {
		t.Fatalf("%d drops reported %s dead, want exactly 1", n, shared)
	}
	if _, ok := r.PackageRefs()[shared]; ok {
		t.Fatalf("%s still counted after its last drop", shared)
	}
}
