package expelliarmus

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"expelliarmus/internal/builder"
	"expelliarmus/internal/catalog"
	"expelliarmus/internal/core"
	"expelliarmus/internal/fsx"
	"expelliarmus/internal/vmirepo"
)

// TestWALReplayEquivalence is the replay-equivalence property test for
// the metadata WAL: a random Table II op sequence — fresh publishes
// (some charged to tenants, some with TTLs), republishes with fresh
// user data, removals, TTL expiry sweeps, vacuums, retrievals — applied
// identically to a memory-backed System (the always-rewrite reference
// path: its Save() serialises the whole database) and to a disk-backed
// System whose WAL is periodically synced and aggressively compacted
// (a tiny threshold forces compactions mid-sequence). At every
// checkpoint the two must agree on byte-identical Save() snapshots,
// repository stats, tenant accounting and retrieval reports, and the
// disk System must still agree after Close and a real reopen — i.e.
// after its state has been reconstructed purely from snapshot + WAL
// replay.
func TestWALReplayEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("replay-equivalence property test skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(20260730))
	names := []string{"Mini", "Redis", "Base", "MongoDb", "Desktop"}

	mem := New()
	dir := t.TempDir()
	dsk, err := OpenAt(dir, Options{WALCompactBytes: 4096})
	if err != nil {
		t.Fatalf("OpenAt: %v", err)
	}

	// One built image per template per system; republishes clone it and
	// stamp versioned user data, so both systems see identical inputs.
	built := map[string]map[string]*Image{"mem": {}, "dsk": {}}
	for _, n := range names {
		for key, sys := range map[string]*System{"mem": mem, "dsk": dsk} {
			img, err := sys.BuildImage(n)
			if err != nil {
				t.Fatalf("build %s: %v", n, err)
			}
			built[key][n] = img
		}
	}
	publish := func(name string, version int, opts PublishOptions) error {
		for key, sys := range map[string]*System{"mem": mem, "dsk": dsk} {
			img := &Image{inner: built[key][name].inner.Clone()}
			if version > 0 {
				if err := img.WriteUserFile("/home/user/version.txt", []byte(fmt.Sprintf("v%d", version))); err != nil {
					return err
				}
			}
			memRes, err := sys.PublishWith(img, opts)
			if err != nil {
				return fmt.Errorf("%s publish %s v%d: %w", key, name, version, err)
			}
			_ = memRes
		}
		return nil
	}

	check := func(stage string) {
		t.Helper()
		memSnap := mustSave(t, mem)
		dskSnap := mustSave(t, dsk)
		if !bytes.Equal(memSnap, dskSnap) {
			t.Fatalf("[%s] Save() diverged: memory %d bytes, disk %d bytes", stage, len(memSnap), len(dskSnap))
		}
		// Compare the logical catalog only: DiskGB/DeadGB describe the disk
		// backend's physical footprint, which a memory repo rightly lacks.
		ms, ds := mem.RepoStats(), dsk.RepoStats()
		ms.DiskGB, ms.DeadGB = 0, 0
		ds.DiskGB, ds.DeadGB = 0, 0
		if ms != ds {
			t.Fatalf("[%s] repo stats diverged: memory %+v, disk %+v", stage, ms, ds)
		}
		// fmt prints maps in sorted key order, so this is a stable compare.
		if mt, dt := fmt.Sprint(mem.TenantStats()), fmt.Sprint(dsk.TenantStats()); mt != dt {
			t.Fatalf("[%s] tenant accounting diverged: memory %s, disk %s", stage, mt, dt)
		}
	}

	published := map[string]int{} // name -> latest user-data version
	clock := int64(1000)          // logical expiry clock; TTLs land a few ticks out
	const steps = 34
	for i := 0; i < steps; i++ {
		name := names[rng.Intn(len(names))]
		switch {
		case published[name] == 0:
			var opts PublishOptions
			if rng.Intn(2) == 0 {
				opts.Tenant = []string{"alice", "bob"}[rng.Intn(2)]
			}
			if rng.Intn(3) == 0 {
				opts.ExpiresAt = clock + int64(rng.Intn(8)+1)
			}
			if err := publish(name, 1, opts); err != nil {
				t.Fatal(err)
			}
			published[name] = 1
		case rng.Intn(6) == 0: // TTL sweep at an advancing deadline
			clock += int64(rng.Intn(5) + 1)
			memExp, err := mem.ExpireAt(clock)
			if err != nil {
				t.Fatalf("mem expire at %d: %v", clock, err)
			}
			dskExp, err := dsk.ExpireAt(clock)
			if err != nil {
				t.Fatalf("dsk expire at %d: %v", clock, err)
			}
			sort.Strings(memExp)
			sort.Strings(dskExp)
			if fmt.Sprint(memExp) != fmt.Sprint(dskExp) {
				t.Fatalf("expiry diverged at %d: memory %v, disk %v", clock, memExp, dskExp)
			}
			for _, n := range memExp {
				delete(published, n)
			}
		case rng.Intn(6) == 0: // vacuum (accounting rewrite + orphan sweep)
			for key, sys := range map[string]*System{"mem": mem, "dsk": dsk} {
				if _, err := sys.Vacuum(); err != nil {
					t.Fatalf("%s vacuum: %v", key, err)
				}
			}
		case rng.Intn(4) == 0 && len(published) > 1:
			for key, sys := range map[string]*System{"mem": mem, "dsk": dsk} {
				if err := sys.Remove(name); err != nil {
					t.Fatalf("%s remove %s: %v", key, name, err)
				}
			}
			delete(published, name)
		case rng.Intn(3) == 0:
			memImg, memRep, err := mem.Retrieve(name)
			if err != nil {
				t.Fatalf("mem retrieve %s: %v", name, err)
			}
			dskImg, dskRep, err := dsk.Retrieve(name)
			if err != nil {
				t.Fatalf("dsk retrieve %s: %v", name, err)
			}
			if !bytes.Equal(memImg.inner.Disk.Serialize(), dskImg.inner.Disk.Serialize()) {
				t.Fatalf("retrieved %s bytes diverged", name)
			}
			if fmt.Sprintf("%v %v", memRep.Imported, memRep.Seconds) != fmt.Sprintf("%v %v", dskRep.Imported, dskRep.Seconds) {
				t.Fatalf("retrieval reports for %s diverged", name)
			}
		default:
			// Republish: fresh user data, and occasionally a fresh tenant or
			// TTL — the new lifecycle record replaces the old one wholesale.
			var opts PublishOptions
			if rng.Intn(3) == 0 {
				opts.Tenant = "carol"
			}
			if rng.Intn(4) == 0 {
				opts.ExpiresAt = clock + int64(rng.Intn(8)+1)
			}
			v := published[name] + 1
			if err := publish(name, v, opts); err != nil {
				t.Fatal(err)
			}
			published[name] = v
		}
		if i%4 == 3 {
			if _, err := dsk.Sync(); err != nil {
				t.Fatalf("step %d Sync: %v", i, err)
			}
			check(fmt.Sprintf("step %d", i))
		}
		if i == steps/2 {
			st, err := dsk.Compact()
			if err != nil {
				t.Fatalf("mid-sequence Compact: %v", err)
			}
			if !st.Compacted {
				t.Fatalf("forced compaction did not compact: %+v", st)
			}
			check("post-compact")
		}
	}
	check("final")
	finalNames := make([]string, 0, len(published))
	for name := range published {
		finalNames = append(finalNames, name)
	}
	sort.Strings(finalNames)
	memSnap := mustSave(t, mem)
	memStats := mem.RepoStats()
	memRet := ""
	for _, name := range finalNames {
		_, rep, err := mem.Retrieve(name)
		if err != nil {
			t.Fatalf("final mem retrieve %s: %v", name, err)
		}
		memRet += fmt.Sprintf("%s %v %.6f %v\n", name, rep.Imported, rep.Seconds, rep.Phases)
	}
	if err := dsk.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// The reopened System's state is reconstructed purely from the
	// committed snapshot + WAL replay; it must be indistinguishable.
	re, err := OpenAt(dir, Options{WALCompactBytes: 4096})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if reSnap := mustSave(t, re); !bytes.Equal(reSnap, memSnap) {
		t.Fatalf("reopened Save() differs from the always-rewrite reference: %d vs %d bytes", len(reSnap), len(memSnap))
	}
	// Logical catalog only, as in check(): the reopened repo's physical
	// footprint (DiskGB/DeadGB) depends on segment layout and released
	// bytes, neither of which a memory reference has.
	reStats, refStats := re.RepoStats(), memStats
	reStats.DiskGB, reStats.DeadGB = 0, 0
	refStats.DiskGB, refStats.DeadGB = 0, 0
	if reStats != refStats {
		t.Fatalf("reopened stats differ: %+v vs %+v", reStats, refStats)
	}
	reRet := ""
	for _, name := range finalNames {
		_, rep, err := re.Retrieve(name)
		if err != nil {
			t.Fatalf("reopened retrieve %s: %v", name, err)
		}
		reRet += fmt.Sprintf("%s %v %.6f %v\n", name, rep.Imported, rep.Seconds, rep.Phases)
	}
	if reRet != memRet {
		t.Fatalf("retrieval reports differ after WAL replay:\nmemory:\n%s\nreopened:\n%s", memRet, reRet)
	}
}

// openAtFault is OpenAt with default options on an fsx.Fault, for tests
// that crash the System.
func openAtFault(t *testing.T, dir string) (*System, *fsx.Fault) {
	t.Helper()
	ffs := fsx.NewFault()
	dev := newDevice()
	repo, err := vmirepo.OpenAtOpts(dir, dev, vmirepo.OpenOptions{FS: ffs})
	if err != nil {
		t.Fatalf("OpenAt: %v", err)
	}
	sys := &System{dev: dev, sys: core.NewSystemWithRepo(repo, dev, coreOptions(Options{})), b: builder.New(catalog.NewUniverse())}
	return sys, ffs
}

// TestWALCrashRollsBackToLastSync pins the facade-visible crash
// contract: operations after the last Sync are rolled back by a crash —
// the reopened catalog is exactly the synced one, with the unsynced
// publish absent and the unsynced removal undone.
func TestWALCrashRollsBackToLastSync(t *testing.T) {
	dir := t.TempDir()
	sys, ffs := openAtFault(t, dir)
	for _, n := range []string{"Mini", "Redis"} {
		img, err := sys.BuildImage(n)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Publish(img); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	// Unsynced tail: remove one image, publish another.
	if err := sys.Remove("Mini"); err != nil {
		t.Fatal(err)
	}
	img, err := sys.BuildImage("Base")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Publish(img); err != nil {
		t.Fatal(err)
	}
	if err := ffs.Crash(); err != nil {
		t.Fatalf("crash: %v", err)
	}

	re, err := OpenAt(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	for _, n := range []string{"Mini", "Redis"} {
		if _, _, err := re.Retrieve(n); err != nil {
			t.Fatalf("synced VMI %s lost to the crash: %v", n, err)
		}
	}
	if _, _, err := re.Retrieve("Base"); err == nil {
		t.Fatalf("unsynced publish survived the crash")
	}
}
