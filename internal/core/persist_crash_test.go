package core

import (
	"errors"
	"io"
	"sort"
	"strings"
	"syscall"
	"testing"

	"expelliarmus/internal/builder"
	"expelliarmus/internal/catalog"
	"expelliarmus/internal/fsx"
	"expelliarmus/internal/fsx/fsxtest"
	"expelliarmus/internal/vmi"
	"expelliarmus/internal/vmirepo"
)

// TestCrashAfterRemoveKeepsLastSyncState pins the repository-wide crash
// invariant: operations after the last Sync that release blobs (Remove)
// must not leave the durable metadata pointing at missing blobs. A crash
// rolls the repository back to exactly the last Sync — the removed VMI is
// still there and still retrievable, because blob releases become durable
// only together with the metadata that stopped referencing them.
func TestCrashAfterRemoveKeepsLastSyncState(t *testing.T) {
	dir := t.TempDir()
	ffs := fsx.NewFault()
	repo, err := vmirepo.OpenAtOpts(dir, testDev, vmirepo.OpenOptions{FS: ffs})
	if err != nil {
		t.Fatalf("OpenAt: %v", err)
	}
	sys := NewSystemWithRepo(repo, testDev, Options{})
	b := builder.New(catalog.NewUniverse())
	for _, name := range []string{"Mini", "Redis"} {
		if _, err := sys.Publish(buildImage(t, b, name)); err != nil {
			t.Fatalf("publish %s: %v", name, err)
		}
	}
	if _, err := sys.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := sys.Remove("Mini"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, _, err := sys.Retrieve("Mini"); err == nil {
		t.Fatalf("Mini retrievable after Remove")
	}
	// Crash: the Remove's metadata change and blob releases were never
	// committed.
	if err := ffs.Crash(); err != nil {
		t.Fatalf("crash: %v", err)
	}

	sys2 := reopen(t, dir)
	for _, name := range []string{"Mini", "Redis"} {
		if _, _, err := sys2.Retrieve(name); err != nil {
			t.Fatalf("retrieve %s after crash-reopen: %v (metadata referencing missing blobs?)", name, err)
		}
	}
}

// openRepo opens a disk-backed system at dir on fsys (nil: the real file
// system).
func openRepo(t *testing.T, dir string, fsys fsx.FS) *System {
	t.Helper()
	repo, err := vmirepo.OpenAtOpts(dir, testDev, vmirepo.OpenOptions{FS: fsys})
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	return NewSystemWithRepo(repo, testDev, Options{})
}

// reopen opens dir on the real file system after a crash, checks that no
// committed record dangles, and closes the system when the test ends.
func reopen(t *testing.T, dir string) *System {
	t.Helper()
	sys := openRepo(t, dir, nil)
	t.Cleanup(func() { sys.Close() })
	checkNoDanglingMetadata(t, sys)
	return sys
}

// publishAll publishes clones of imgs, failing the test on error.
func publishAll(t *testing.T, sys *System, imgs ...*vmi.Image) {
	t.Helper()
	for _, img := range imgs {
		if _, err := sys.Publish(img.Clone()); err != nil {
			t.Fatalf("publish: %v", err)
		}
	}
}

// liveVMIs names a repository state by its sorted VMI names.
func liveVMIs(sys *System) string {
	names := sys.Repo().VMIs()
	sort.Strings(names)
	return strings.Join(names, ",")
}

// checkNoDanglingMetadata asserts the repository-wide crash invariant on
// a reopened repository: every committed metadata record resolves — all
// VMIs retrieve end to end, every package and base record's blob reads
// back, and user data (when recorded) is fetchable. Drift in the other
// direction (orphan blobs no record references) is allowed; dangling
// metadata never is.
func checkNoDanglingMetadata(t *testing.T, sys *System) {
	t.Helper()
	repo := sys.Repo()
	for _, name := range repo.VMIs() {
		if _, _, err := sys.Retrieve(name); err != nil {
			t.Fatalf("recovered VMI %s not retrievable: %v", name, err)
		}
		_, rc, _, err := repo.OpenUserData(name, "store", nil)
		if err == nil && rc != nil {
			_, err = io.Copy(io.Discard, rc)
			rc.Close()
		}
		if err != nil {
			t.Fatalf("recovered user data for %s unreadable: %v", name, err)
		}
	}
	pkgs, err := repo.Packages()
	if err != nil {
		t.Fatalf("recovered package records unreadable: %v", err)
	}
	for _, p := range pkgs {
		_, rc, _, err := repo.OpenPackage(p.Pkg.Ref(), "store", nil)
		if err == nil {
			_, err = io.Copy(io.Discard, rc)
			rc.Close()
		}
		if err != nil {
			t.Fatalf("recovered package %s dangling: %v", p.Pkg.Ref(), err)
		}
	}
	bases, err := repo.Bases()
	if err != nil {
		t.Fatalf("recovered base records unreadable: %v", err)
	}
	for _, b := range bases {
		_, rc, _, err := repo.OpenBase(b.ID, "store", nil)
		if err == nil {
			_, err = io.Copy(io.Discard, rc)
			rc.Close()
		}
		if err != nil {
			t.Fatalf("recovered base %s dangling: %v", b.ID, err)
		}
	}
}

// TestWALCrashMatrix is the crash sweep of the repository commit: a
// repository synced at a known state is mutated (a Remove that queues blob
// releases plus a publish that adds blobs) and then crashed at every
// mutating call of a Sync, and of a forced Compact. Recovery must land on
// one of the two transactionally consistent states — the last synced one
// until the effective commit, the new one after it — with orphan blobs as
// the only permitted drift. The windows name the protocol step last
// completed — the blob SyncData, the WAL batch append and fsync, the
// watermark commit, and the compaction's snapshot, WAL reset and switch —
// and each pins the one state its crashes must recover.
func TestWALCrashMatrix(t *testing.T) {
	b := builder.New(catalog.NewUniverse())
	mini, redis, base := buildImage(t, b, "Mini"), buildImage(t, b, "Redis"), buildImage(t, b, "Base")
	template := t.TempDir()
	sys := openRepo(t, template, nil)
	publishAll(t, sys, mini, redis)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	trial := func(compact bool) fsxtest.Trial {
		return func(t *testing.T, ffs *fsx.Fault, n int) string {
			dir := fsxtest.CopyDir(t, template)
			sys := openRepo(t, dir, ffs)
			// The mutation under test: a removal (metadata deletes + queued
			// blob releases) and a publish (metadata adds + new blobs).
			if err := sys.Remove("Mini"); err != nil {
				t.Fatalf("Remove: %v", err)
			}
			publishAll(t, sys, base)
			ffs.Inject(fsx.Crash, n, "")
			var err error
			if compact {
				_, err = sys.Compact()
			} else {
				_, err = sys.Sync()
			}
			if err != nil && !ffs.Crashed() {
				t.Fatalf("commit: %v", err)
			}
			if !ffs.Crashed() {
				if err := sys.Close(); err != nil {
					t.Fatal(err)
				}
			}
			return liveVMIs(reopen(t, dir))
		}
	}
	states := []string{"Mini,Redis", "Base,Redis"}
	fsxtest.Sweep(t, states, []fsxtest.Window{
		{Name: "during-blob-syncdata", Want: states[0]},
		{Name: "after-blob-syncdata", From: "meta.wal-", Want: states[0]},
		{Name: "after-wal-append", From: "meta.commit", Want: states[1]},
		{Name: "after-watermark", From: "seg-", Want: states[1]},
	}, trial(false))
	fsxtest.Sweep(t, states, []fsxtest.Window{
		{Name: "compaction-before-snapshot", Want: states[0]},
		{Name: "mid-compaction-after-snapshot", From: "meta.wal-", Want: states[0]},
		{Name: "mid-compaction-after-wal-reset", From: "meta.commit", Want: states[0]},
		{Name: "after-compaction-commit", Op: "syncdir", Want: states[1]},
	}, trial(true))
}

// TestCloseAfterFailedCommitKeepsReleases pins Close's failed-commit path:
// when the WAL fsync inside Close's Sync fails, the removal's metadata
// batch is lost with it, so Close must return the error and let the blob
// store go WITHOUT flushing the removal's queued releases — flushing them
// would reclaim blobs the still-committed metadata references.
func TestCloseAfterFailedCommitKeepsReleases(t *testing.T) {
	b := builder.New(catalog.NewUniverse())
	dir := t.TempDir()
	ffs := fsx.NewFault()
	sys := openRepo(t, dir, ffs)
	publishAll(t, sys, buildImage(t, b, "Mini"), buildImage(t, b, "Redis"))
	if _, err := sys.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Remove("Mini"); err != nil {
		t.Fatal(err)
	}
	ffs.Inject(fsx.FailSync, 1, "meta.wal-")
	if err := sys.Close(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Close with a failing WAL fsync = %v, want EIO", err)
	}
	if got := liveVMIs(reopen(t, dir)); got != "Mini,Redis" {
		t.Fatalf("reopened after the failed commit with %s, want the last synced Mini,Redis", got)
	}
}
