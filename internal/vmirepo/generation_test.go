package vmirepo

import (
	"fmt"
	"sync"
	"testing"

	"expelliarmus/internal/master"
	"expelliarmus/internal/semgraph"
)

// TestGenerationBumpsOnEveryMutation walks each mutating repository
// operation and checks the generation moved — the retrieval cache's
// invalidation protocol depends on no mutation slipping through quietly.
func TestGenerationBumpsOnEveryMutation(t *testing.T) {
	r, m := newRepo()
	last := r.Generation()
	step := func(op string, fn func()) {
		t.Helper()
		fn()
		if g := r.Generation(); g <= last {
			t.Fatalf("%s did not advance the generation (%d -> %d)", op, last, g)
		} else {
			last = g
		}
	}

	p := pkg("redis")
	// EnsurePackage is deliberately exempt: an add-only insert of a ref no
	// master graph references cannot change any assembly's output, so it
	// must NOT flush warm cache entries (see the EnsurePackage doc).
	if _, err := r.EnsurePackage(p, []byte("blob"), m); err != nil {
		t.Fatal(err)
	}
	if g := r.Generation(); g != last {
		t.Fatalf("EnsurePackage moved the generation (%d -> %d); package-only inserts must be exempt", last, g)
	}
	step("PutBase", func() {
		if err := putBase(r, "base-1", []byte("base image"), m); err != nil {
			t.Fatal(err)
		}
	})
	step("PutMaster", func() {
		r.PutMaster(master.New("base-1", semgraph.New(attrs)), m)
	})
	step("PutVMI", func() {
		r.PutVMI(VMIRecord{Name: "vmi-1", BaseID: "base-1", Primaries: []string{"redis"}}, m)
	})
	step("PutUserData", func() {
		if err := r.PutUserData("vmi-1", []byte("archive"), m); err != nil {
			t.Fatal(err)
		}
	})
	step("RewireVMIs", func() { r.RewireVMIs("base-1", "base-2", m) })
	step("RemoveUserData", func() {
		if err := r.RemoveUserData("vmi-1", m); err != nil {
			t.Fatal(err)
		}
	})
	step("RemoveVMI", func() { r.RemoveVMI("vmi-1", m) })
	step("RemoveMaster", func() { r.RemoveMaster("base-1", m) })
	step("RemoveBase", func() {
		if err := r.RemoveBase("base-1", m); err != nil {
			t.Fatal(err)
		}
	})
	step("RemovePackage", func() {
		if err := r.RemovePackage(p.Ref(), m); err != nil {
			t.Fatal(err)
		}
	})
}

// TestGenerationStableAcrossReads pins the other half of the contract:
// read-only operations never move the generation, otherwise the cache
// could never take a hit.
func TestGenerationStableAcrossReads(t *testing.T) {
	r, m := newRepo()
	p := pkg("redis")
	if _, err := r.EnsurePackage(p, []byte("blob"), m); err != nil {
		t.Fatal(err)
	}
	if err := putBase(r, "base-1", []byte("base image"), m); err != nil {
		t.Fatal(err)
	}
	r.PutVMI(VMIRecord{Name: "vmi-1", BaseID: "base-1"}, m)
	g := r.Generation()
	r.HasPackage(p.Ref(), m)
	if _, _, err := r.GetPackage(p.Ref(), "fetch", m); err != nil {
		t.Fatal(err)
	}
	r.HasBase("base-1", m)
	if _, err := getBase(r, "base-1", "copy", m); err != nil {
		t.Fatal(err)
	}
	if _, err := r.GetVMI("vmi-1", m); err != nil {
		t.Fatal(err)
	}
	if _, err := r.GetUserData("vmi-1", "import", m); err != nil {
		t.Fatal(err)
	}
	r.VMIs()
	r.Stats()
	if _, err := r.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if got := r.Generation(); got != g {
		t.Fatalf("reads moved the generation: %d -> %d", g, got)
	}
}

// otherStripeKey returns a key whose generation stripe differs from every
// stripe of the given keys — the "unrelated base" of the striping tests.
func otherStripeKey(t *testing.T, avoid ...string) string {
	t.Helper()
	used := map[int]bool{}
	for _, k := range avoid {
		used[StripeFor(k)] = true
	}
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("unrelated-%d", i)
		if !used[StripeFor(k)] {
			return k
		}
	}
	t.Fatal("no key off the avoided stripes found")
	return ""
}

// TestGenerationStriping is the striping contract: a mutation scoped to
// one base image moves only the generation of its own stripe(s), so a
// reader scoped to an unrelated base keeps its window — the property that
// lets hot cache entries survive steady publish traffic on other bases.
func TestGenerationStriping(t *testing.T) {
	r, m := newRepo()
	hotBase := "base-hot"
	hotName := "vmi-hot"
	otherBase := otherStripeKey(t, hotBase, hotName)
	otherName := otherStripeKey(t, hotBase, hotName, otherBase)

	hotGen := r.GenerationFor(hotBase, hotName)

	// A full publish-shaped mutation sequence on the unrelated base.
	if err := putBase(r, otherBase, []byte("image"), m); err != nil {
		t.Fatal(err)
	}
	r.PutMaster(master.New(otherBase, semgraph.New(attrs)), m)
	r.PutVMI(VMIRecord{Name: otherName, BaseID: otherBase}, m)
	if err := r.PutUserData(otherName, []byte("archive"), m); err != nil {
		t.Fatal(err)
	}
	if got := r.GenerationFor(hotBase, hotName); got != hotGen {
		t.Fatalf("mutations on an unrelated base moved the hot stripes: %d -> %d", hotGen, got)
	}
	if got := r.GenerationFor(otherBase, otherName); got == 0 {
		t.Fatal("mutations did not move their own stripes")
	}
	if r.Generation() == 0 {
		t.Fatal("cross-stripe Generation() missed the mutations")
	}

	// Mutations on the hot keys move the hot stripes.
	r.PutVMI(VMIRecord{Name: hotName, BaseID: hotBase}, m)
	if got := r.GenerationFor(hotBase, hotName); got == hotGen {
		t.Fatal("mutation on the hot base left its stripes unchanged")
	}
}

// TestPackageRemovalBumpsEveryStripe: package GC has no scoping key (a
// ref can be shared across bases), so it must fall back to bumping every
// stripe — no reader anywhere may validate a window across it.
func TestPackageRemovalBumpsEveryStripe(t *testing.T) {
	r, m := newRepo()
	p := pkg("redis")
	if _, err := r.EnsurePackage(p, []byte("blob"), m); err != nil {
		t.Fatal(err)
	}
	// One probe key per stripe — generated until all GenStripes stripes
	// are covered, so no stripe escapes the assertion by hash accident.
	probes := map[int]string{}
	for i := 0; len(probes) < GenStripes; i++ {
		k := fmt.Sprintf("probe-%d", i)
		if _, ok := probes[StripeFor(k)]; !ok {
			probes[StripeFor(k)] = k
		}
	}
	before := map[int]uint64{}
	for stripe, k := range probes {
		before[stripe] = r.GenerationFor(k)
	}
	if err := r.RemovePackage(p.Ref(), m); err != nil {
		t.Fatal(err)
	}
	for stripe, k := range probes {
		if got := r.GenerationFor(k); got == before[stripe] {
			t.Fatalf("RemovePackage left stripe %d unchanged", stripe)
		}
	}
}

// TestGenerationForIsOrderAndDuplicateIndependent: the combined value
// must depend only on the stripe set, or lookup and insert could disagree
// on a key's generation.
func TestGenerationForIsOrderAndDuplicateIndependent(t *testing.T) {
	r, m := newRepo()
	if err := putBase(r, "base-1", []byte("image"), m); err != nil {
		t.Fatal(err)
	}
	a := r.GenerationFor("base-1", "vmi-1")
	b := r.GenerationFor("vmi-1", "base-1")
	c := r.GenerationFor("base-1", "vmi-1", "base-1", "vmi-1")
	if a != b || a != c {
		t.Fatalf("GenerationFor not canonical: %d / %d / %d", a, b, c)
	}
}

// TestGenerationWindowNeverValidatesAcrossMutation is the seqlock
// property the cache's insert path relies on: a reader that captures the
// generation before a mutation begins can never observe the same
// generation after that mutation's writes became visible. The mutation is
// held open in another goroutine while the reader samples.
func TestGenerationWindowNeverValidatesAcrossMutation(t *testing.T) {
	r, m := newRepo()
	const rounds = 200
	var wg sync.WaitGroup
	start := make(chan int)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range start {
			r.PutVMI(VMIRecord{Name: "vmi", BaseID: "base"}, m)
			_ = i
		}
	}()
	for i := 0; i < rounds; i++ {
		before := r.Generation()
		beforeStriped := r.GenerationFor("base", "vmi")
		start <- i // mutation begins strictly after `before` was captured
		// Sample until the record write is visible, then check the window.
		for {
			if _, err := r.GetVMI("vmi", nil); err == nil {
				break
			}
		}
		if r.Generation() == before {
			t.Fatalf("round %d: observed a committed write inside a stable generation window", i)
		}
		if r.GenerationFor("base", "vmi") == beforeStriped {
			t.Fatalf("round %d: observed a committed write inside a stable striped window", i)
		}
		r.RemoveVMI("vmi", m)
	}
	close(start)
	wg.Wait()
}
