package core

import (
	"fmt"
	"testing"

	"expelliarmus/internal/builder"
	"expelliarmus/internal/catalog"
	"expelliarmus/internal/fsx"
	"expelliarmus/internal/fsx/fsxtest"
)

// TestLifecycleCrashMatrix extends the WAL crash sweep to the lifecycle
// paths: a TTL sweep (ExpireAt -> Remove) crashed at every call of its
// commit, and a Vacuum crashed at every call of its internal compaction.
// Recovery must land on exactly one of the two transactionally consistent
// states — the last synced state (the expired image back, its tenant
// still charged) until the effective commit, the new state (image gone,
// tenant credited) after it — never a mix, and never metadata pointing at
// missing blobs. Orphan blobs are the only permitted drift; Vacuum itself
// is the tool that reclaims them, so a re-run after recovery must
// converge.
func TestLifecycleCrashMatrix(t *testing.T) {
	b := builder.New(catalog.NewUniverse())
	template := t.TempDir()
	sys := openRepo(t, template, nil)
	if _, err := sys.PublishWith(buildImage(t, b, "Mini"), PublishOpts{Tenant: "alice", ExpiresAt: 100}); err != nil {
		t.Fatalf("publish Mini: %v", err)
	}
	if _, err := sys.PublishWith(buildImage(t, b, "Redis"), PublishOpts{Tenant: "bob"}); err != nil {
		t.Fatalf("publish Redis: %v", err)
	}
	aliceCharge, bobCharge := sys.TenantStats()["alice"], sys.TenantStats()["bob"]
	if aliceCharge <= 0 || bobCharge <= 0 {
		t.Fatalf("publishes not charged: alice %d, bob %d", aliceCharge, bobCharge)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	// Tenant accounting is part of the same transaction, so it names the
	// state together with the live images.
	state := func(sys *System) string {
		return fmt.Sprintf("%s alice=%d bob=%d", liveVMIs(sys), sys.TenantStats()["alice"], sys.TenantStats()["bob"])
	}
	states := []string{
		fmt.Sprintf("Mini,Redis alice=%d bob=%d", aliceCharge, bobCharge),
		fmt.Sprintf("Redis alice=0 bob=%d", bobCharge),
	}

	trial := func(vacuum bool) fsxtest.Trial {
		return func(t *testing.T, ffs *fsx.Fault, n int) string {
			dir := fsxtest.CopyDir(t, template)
			sys := openRepo(t, dir, ffs)
			// The mutation under test: the TTL sweep removes Mini (its
			// metadata deletes, queued blob releases, and tenant credit all
			// ride the crashed commit).
			expired, err := sys.ExpireAt(150)
			if err != nil || len(expired) != 1 || expired[0] != "Mini" {
				t.Fatalf("ExpireAt = %v, %v; want [Mini]", expired, err)
			}
			ffs.Inject(fsx.Crash, n, "")
			if vacuum {
				_, err = sys.Vacuum()
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

			sys2 := reopen(t, dir)
			got := state(sys2)
			// The only drift the protocol allows is orphan blobs; a Vacuum
			// on the recovered repository reclaims them and converges — a
			// second pass finds nothing.
			if _, err := sys2.Vacuum(); err != nil {
				t.Fatalf("vacuum after recovery: %v", err)
			}
			st, err := sys2.Vacuum()
			if err != nil {
				t.Fatalf("second vacuum after recovery: %v", err)
			}
			if st.PackagesRemoved != 0 || st.BlobsReleased != 0 || st.MetaRemoved != 0 || st.UserDataRemoved != 0 {
				t.Fatalf("vacuum did not converge after a crash at call %d: %+v", n, st)
			}
			if _, _, err := sys2.Retrieve("Redis"); err != nil {
				t.Fatalf("Redis lost to post-recovery vacuum: %v", err)
			}
			return got
		}
	}
	fsxtest.Sweep(t, states, []fsxtest.Window{
		{Name: "expire-after-blob-syncdata", Want: states[0]},
		{Name: "expire-after-wal-append", From: "meta.commit", Want: states[1]},
		{Name: "expire-after-watermark", From: "seg-", Want: states[1]},
	}, trial(false))
	fsxtest.Sweep(t, states, []fsxtest.Window{
		{Name: "vacuum-mid-compaction-writing-snapshot", Want: states[0]},
		{Name: "vacuum-mid-compaction-after-snapshot", From: "meta.wal-", Want: states[0]},
		{Name: "vacuum-mid-compaction-after-wal-reset", From: "meta.commit", Want: states[0]},
		{Name: "vacuum-after-compaction-commit", Op: "syncdir", Want: states[1]},
	}, trial(true))
}
