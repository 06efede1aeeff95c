package core

import (
	"fmt"
	"io"
	"testing"

	"expelliarmus/internal/builder"
	"expelliarmus/internal/catalog"
	"expelliarmus/internal/metawal"
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
	repo, err := vmirepo.OpenAt(dir, testDev)
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
	if err := repo.Abandon(); err != nil {
		t.Fatalf("Abandon: %v", err)
	}

	repo2, err := vmirepo.OpenAt(dir, testDev)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	sys2 := NewSystemWithRepo(repo2, testDev, Options{})
	defer sys2.Close()
	for _, name := range []string{"Mini", "Redis"} {
		if _, _, err := sys2.Retrieve(name); err != nil {
			t.Fatalf("retrieve %s after crash-reopen: %v (metadata referencing missing blobs?)", name, err)
		}
	}
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
		if _, err := repo.GetUserData(name, "store", nil); err != nil {
			t.Fatalf("recovered user data for %s unreadable: %v", name, err)
		}
	}
	pkgs, err := repo.Packages()
	if err != nil {
		t.Fatalf("recovered package records unreadable: %v", err)
	}
	for _, p := range pkgs {
		if _, _, err := repo.GetPackage(p.Pkg.Ref(), "store", nil); err != nil {
			t.Fatalf("recovered package %s dangling: %v", p.Pkg.Ref(), err)
		}
	}
	bases, err := repo.Bases()
	if err != nil {
		t.Fatalf("recovered base records unreadable: %v", err)
	}
	for _, b := range bases {
		rc, _, err := repo.OpenBase(b.ID, "store", nil)
		if err == nil {
			_, err = io.Copy(io.Discard, rc)
			rc.Close()
		}
		if err != nil {
			t.Fatalf("recovered base %s dangling: %v", b.ID, err)
		}
	}
}

// TestWALCrashMatrix is the kill-point crash matrix for the metadata
// WAL: a repository is synced at a known state, mutated (a Remove that
// queues blob releases plus a publish that adds blobs), and then killed
// at every injection point of the commit protocol — after blob SyncData
// (= WAL entry), after the WAL batch append+fsync, after the watermark
// commit, and at each window of a forced compaction. Recovery must land
// on exactly one of the two transactionally consistent states (the last
// synced state when the kill preceded the effective commit, the new
// state when it followed), with orphan blobs as the only permitted
// drift.
func TestWALCrashMatrix(t *testing.T) {
	cases := []struct {
		name    string
		point   metawal.KillPoint
		compact bool
		// newState: the reopened repository reflects the mutations (Mini
		// removed, Base published); otherwise the last synced state (Mini
		// and Redis present, Base absent).
		newState bool
	}{
		{"after-blob-syncdata", metawal.KillBeforeAppend, false, false},
		{"after-wal-append", metawal.KillAfterAppend, false, true},
		{"after-watermark", metawal.KillAfterCommit, false, true},
		{"mid-compaction-after-snapshot", metawal.KillAfterSnapshot, true, false},
		{"mid-compaction-after-wal-reset", metawal.KillAfterWALReset, true, false},
		{"after-compaction-commit", metawal.KillAfterCompactCommit, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			repo, err := vmirepo.OpenAt(dir, testDev)
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
				t.Fatalf("baseline Sync: %v", err)
			}
			// The mutation under test: a removal (metadata deletes + queued
			// blob releases) and a publish (metadata adds + new blobs).
			if err := sys.Remove("Mini"); err != nil {
				t.Fatalf("Remove: %v", err)
			}
			if _, err := sys.Publish(buildImage(t, b, "Base")); err != nil {
				t.Fatalf("publish Base: %v", err)
			}

			repo.WAL().Kill = func(p metawal.KillPoint) error {
				if p == tc.point {
					return fmt.Errorf("injected crash at %s", tc.name)
				}
				return nil
			}
			if tc.compact {
				_, err = sys.Compact()
			} else {
				_, err = sys.Sync()
			}
			if err == nil {
				t.Fatalf("killed commit reported success")
			}
			if err := repo.Abandon(); err != nil {
				t.Fatalf("Abandon: %v", err)
			}

			repo2, err := vmirepo.OpenAt(dir, testDev)
			if err != nil {
				t.Fatalf("reopen after crash at %s: %v", tc.name, err)
			}
			sys2 := NewSystemWithRepo(repo2, testDev, Options{})
			defer sys2.Close()
			checkNoDanglingMetadata(t, sys2)

			wantPresent := map[string]bool{"Redis": true, "Mini": !tc.newState, "Base": tc.newState}
			for name, want := range wantPresent {
				_, _, err := sys2.Retrieve(name)
				if want && err != nil {
					t.Fatalf("%s should be retrievable after crash at %s: %v", name, tc.name, err)
				}
				if !want && err == nil {
					t.Fatalf("%s should be absent after crash at %s", name, tc.name)
				}
			}
			if tc.newState {
				// The removal became durable; its queued blob releases must
				// NOT have (they are logged only by the final blob sync,
				// which the kill preceded) — drift is orphans only, never a
				// record pointing at a reclaimed blob.
				if rec, ok := repo2.BlobRecovery(); !ok || rec.Torn() {
					t.Fatalf("blob store recovery unexpected: %+v (present %v)", rec, ok)
				}
			}
		})
	}
}
