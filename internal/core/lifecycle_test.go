package core

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"expelliarmus/internal/builder"
	"expelliarmus/internal/catalog"
	"expelliarmus/internal/vmirepo"
)

// tenantCharge measures what publishing template costs a tenant on a
// fresh repository — the charge quota tests calibrate against.
func tenantCharge(t *testing.T, template string) int64 {
	t.Helper()
	s, b := newSystem(t, Options{})
	if _, err := s.PublishWith(buildImage(t, b, template), PublishOpts{Tenant: "probe"}); err != nil {
		t.Fatal(err)
	}
	charge := s.TenantStats()["probe"]
	if charge <= 0 {
		t.Fatalf("publish of %s charged %d bytes", template, charge)
	}
	return charge
}

func TestTenantQuotaEnforced(t *testing.T) {
	quota := tenantCharge(t, "Mini")
	s := NewSystem(testDev, Options{TenantQuotas: map[string]int64{"alice": quota}})
	b := builder.New(catalog.NewUniverse())

	// Exactly at quota: allowed.
	if _, err := s.PublishWith(buildImage(t, b, "Mini"), PublishOpts{Tenant: "alice"}); err != nil {
		t.Fatalf("publish at quota: %v", err)
	}
	if got := s.TenantStats()["alice"]; got != quota {
		t.Fatalf("alice usage = %d, want %d", got, quota)
	}

	// A second image needs new bytes and must be rejected — before any
	// graph mutation, so the repository still serves the first image.
	_, err := s.PublishWith(buildImage(t, b, "Redis"), PublishOpts{Tenant: "alice"})
	if !errors.Is(err, vmirepo.ErrQuotaExceeded) {
		t.Fatalf("over-quota publish = %v, want ErrQuotaExceeded", err)
	}
	if st := s.Repo().Stats(); st.VMIs != 1 {
		t.Fatalf("rejected publish left %d VMIs, want 1", st.VMIs)
	}
	if _, _, err := s.Retrieve("Mini"); err != nil {
		t.Fatalf("Mini broken after rejected publish: %v", err)
	}

	// Unquota'd tenants and the empty tenant are never capped.
	if _, err := s.PublishWith(buildImage(t, b, "Redis"), PublishOpts{Tenant: "bob"}); err != nil {
		t.Fatalf("uncapped tenant rejected: %v", err)
	}
	if _, err := s.Publish(buildImage(t, b, "Base")); err != nil {
		t.Fatalf("tenantless publish rejected: %v", err)
	}

	// Removal credits the tenant back in full, making room again.
	if err := s.Remove("Mini"); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.TenantStats()["alice"]; ok {
		t.Fatalf("alice still charged %d bytes after removal", got)
	}
	if _, err := s.PublishWith(buildImage(t, b, "Mini"), PublishOpts{Tenant: "alice"}); err != nil {
		t.Fatalf("publish after removal freed quota: %v", err)
	}
}

// TestRepublishRechargesTenant: republishing the same name must not
// double-charge — the old record's charge is credited as the new one is
// recorded, and the quota check discounts it up front.
func TestRepublishRechargesTenant(t *testing.T) {
	s, b := newSystem(t, Options{})
	if _, err := s.PublishWith(buildImage(t, b, "Mini"), PublishOpts{Tenant: "alice"}); err != nil {
		t.Fatal(err)
	}
	first := s.TenantStats()["alice"]
	if _, err := s.PublishWith(buildImage(t, b, "Mini"), PublishOpts{Tenant: "alice"}); err != nil {
		t.Fatal(err)
	}
	second := s.TenantStats()["alice"]
	// The republish stores less (base and packages dedup away), so the
	// recorded charge can only shrink; doubling would exceed first.
	if second > first {
		t.Fatalf("republish grew charge %d -> %d", first, second)
	}
	// Republishing under a different tenant moves the whole charge.
	if _, err := s.PublishWith(buildImage(t, b, "Mini"), PublishOpts{Tenant: "carol"}); err != nil {
		t.Fatal(err)
	}
	ts := s.TenantStats()
	if _, ok := ts["alice"]; ok {
		t.Fatalf("alice still charged after tenant handoff: %v", ts)
	}
	if ts["carol"] <= 0 {
		t.Fatalf("carol not charged after handoff: %v", ts)
	}
}

func TestExpireAtRemovesOnlyExpired(t *testing.T) {
	s, b := newSystem(t, Options{})
	pubs := []struct {
		name string
		exp  int64
	}{{"Mini", 100}, {"Redis", 200}, {"Base", 0}}
	for _, p := range pubs {
		if _, err := s.PublishWith(buildImage(t, b, p.name), PublishOpts{Tenant: "alice", ExpiresAt: p.exp}); err != nil {
			t.Fatal(err)
		}
	}

	// Before any deadline: nothing to do.
	removed, err := s.ExpireAt(99)
	if err != nil || len(removed) != 0 {
		t.Fatalf("ExpireAt(99) = %v, %v", removed, err)
	}

	removed, err = s.ExpireAt(150)
	if err != nil || len(removed) != 1 || removed[0] != "Mini" {
		t.Fatalf("ExpireAt(150) = %v, %v, want [Mini]", removed, err)
	}
	if _, _, err := s.Retrieve("Mini"); !errors.Is(err, vmirepo.ErrNotFound) {
		t.Fatalf("expired VMI retrieve = %v, want ErrNotFound", err)
	}
	for _, n := range []string{"Redis", "Base"} {
		if _, _, err := s.Retrieve(n); err != nil {
			t.Fatalf("unexpired %s broken: %v", n, err)
		}
	}

	// Expiry credits the tenant like any removal.
	afterFirst := s.TenantStats()["alice"]
	removed, err = s.ExpireAt(200) // boundary is inclusive
	if err != nil || len(removed) != 1 || removed[0] != "Redis" {
		t.Fatalf("ExpireAt(200) = %v, %v, want [Redis]", removed, err)
	}
	if got := s.TenantStats()["alice"]; got >= afterFirst {
		t.Fatalf("expiry did not credit tenant: %d -> %d", afterFirst, got)
	}
	// The never-expiring image survives arbitrarily far futures.
	if removed, err := s.ExpireAt(time.Date(2100, 1, 1, 0, 0, 0, 0, time.UTC).Unix()); err != nil || len(removed) != 0 {
		t.Fatalf("never-expiring image expired: %v, %v", removed, err)
	}
}

// TestVacuumReclaimsQuotaRejectedOrphans: a quota-rejected publish
// stores its package and user-data blobs before the commit-time check;
// Vacuum must reclaim them while leaving survivors byte-identical.
func TestVacuumReclaimsQuotaRejectedOrphans(t *testing.T) {
	quota := tenantCharge(t, "Mini")
	s := NewSystem(testDev, Options{TenantQuotas: map[string]int64{"alice": quota}})
	b := builder.New(catalog.NewUniverse())
	if _, err := s.PublishWith(buildImage(t, b, "Mini"), PublishOpts{Tenant: "alice"}); err != nil {
		t.Fatal(err)
	}
	var before bytes.Buffer
	if _, _, err := s.RetrieveTo(&before, "Mini"); err != nil {
		t.Fatal(err)
	}

	if _, err := s.PublishWith(buildImage(t, b, "Redis"), PublishOpts{Tenant: "alice"}); !errors.Is(err, vmirepo.ErrQuotaExceeded) {
		t.Fatalf("want quota rejection, got %v", err)
	}
	// The rejected publish left package orphans (e.g. redis-server).
	if !s.Repo().HasPackage("redis-server=1.0-ubuntu1/amd64", nil) {
		t.Fatal("setup: expected orphaned package from rejected publish")
	}
	sizeBefore := s.Repo().SizeBytes()

	st, err := s.Vacuum()
	if err != nil {
		t.Fatal(err)
	}
	if st.PackagesRemoved == 0 || st.BytesReclaimed <= 0 {
		t.Fatalf("vacuum reclaimed nothing: %+v", st)
	}
	if s.Repo().HasPackage("redis-server=1.0-ubuntu1/amd64", nil) {
		t.Fatal("orphaned package survived vacuum")
	}
	if s.Repo().SizeBytes() >= sizeBefore {
		t.Fatal("vacuum did not shrink the repository")
	}

	var after bytes.Buffer
	if _, _, err := s.RetrieveTo(&after, "Mini"); err != nil {
		t.Fatalf("survivor broken after vacuum: %v", err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("survivor bytes changed across vacuum")
	}
	// A second pass finds nothing: vacuum converges.
	st2, err := s.Vacuum()
	if err != nil {
		t.Fatal(err)
	}
	if st2.PackagesRemoved != 0 || st2.BlobsReleased != 0 || st2.BytesReclaimed != 0 {
		t.Fatalf("second vacuum still reclaimed: %+v", st2)
	}
}

// vmiStripe resolves the commit stripe a published VMI's class hashes to.
func vmiStripe(t *testing.T, s *System, name string) int {
	t.Helper()
	rec, err := s.repo.GetVMI(name, nil)
	if err != nil {
		t.Fatal(err)
	}
	binfo, err := s.repo.BaseInfo(rec.BaseID)
	if err != nil {
		t.Fatal(err)
	}
	return vmirepo.ClassStripe(binfo.Attrs)
}

// TestRemoveCommitsUnderSingleStripe pins the striped-removal contract:
// a single-class Remove must complete while every OTHER commit stripe is
// held, and publishes on unrelated classes must proceed while a Remove
// is blocked on its own class stripe.
func TestRemoveCommitsUnderSingleStripe(t *testing.T) {
	s := NewSystem(testDev, Options{})
	xenial := builder.New(catalog.NewUniverseFor(catalog.ReleaseXenial))
	bionic := builder.New(catalog.NewUniverseFor(catalog.ReleaseBionic))
	tpl, _ := catalog.Find("Redis")
	imgX, err := xenial.Build(tpl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Publish(imgX); err != nil {
		t.Fatal(err)
	}
	sx := vmiStripe(t, s, "Redis")

	// Part 1: hold every stripe except the VMI's own; Remove must not
	// need any of them.
	for i := range s.commitMu {
		if i != sx {
			s.commitMu[i].Lock()
		}
	}
	done := make(chan error, 1)
	go func() { done <- s.Remove("Redis") }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("single-class Remove blocked on an unrelated stripe")
	}
	for i := range s.commitMu {
		if i != sx {
			s.commitMu[i].Unlock()
		}
	}

	// Part 2: republish, block the Remove on its own stripe, and show an
	// unrelated-class publish still lands while the Remove waits.
	imgX2, err := xenial.Build(tpl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Publish(imgX2); err != nil {
		t.Fatal(err)
	}
	s.commitMu[sx].Lock()
	go func() { done <- s.Remove("Redis") }()

	tplB := tpl
	tplB.Name = "Redis-bionic"
	imgB, err := bionic.Build(tplB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Publish(imgB); err != nil {
		t.Fatalf("unrelated-class publish blocked behind a Remove: %v", err)
	}
	if sb := vmiStripe(t, s, "Redis-bionic"); sb == sx {
		t.Fatalf("fixture broken: both classes share stripe %d", sb)
	}
	select {
	case err := <-done:
		t.Fatalf("Remove completed without its class stripe: %v", err)
	default:
	}
	s.commitMu[sx].Unlock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Retrieve("Redis-bionic"); err != nil {
		t.Fatalf("unrelated VMI broken after striped remove: %v", err)
	}
}

// TestVacuumPreservesRefcountedGC: after a vacuum rewrote the refcount
// bucket, removals must keep garbage-collecting exactly.
func TestVacuumPreservesRefcountedGC(t *testing.T) {
	s, b := newSystem(t, Options{})
	for _, n := range []string{"Base", "Lemp"} { // share mysql-server
		if _, err := s.Publish(buildImage(t, b, n)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Vacuum(); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("Base"); err != nil {
		t.Fatal(err)
	}
	if !s.Repo().HasPackage("mysql-server=1.0-ubuntu1/amd64", nil) {
		t.Fatal("shared package collected after vacuum rebuild")
	}
	if s.Repo().HasPackage("apache2=1.0-ubuntu1/amd64", nil) {
		t.Fatal("unshared package survived after vacuum rebuild")
	}
	if _, _, err := s.RetrieveTo(io.Discard, "Lemp"); err != nil {
		t.Fatalf("survivor broken: %v", err)
	}
}

// TestNewlineTenantLifecycle: the lifecycle record joins tenant, expiry
// and charge with newlines, so a tenant holding one must still round-trip
// through expiry, removal and Vacuum, and be credited back to zero.
func TestNewlineTenantLifecycle(t *testing.T) {
	s, b := newSystem(t, Options{})
	const tenant = "a\nb"
	for _, p := range []struct {
		name string
		exp  int64
	}{{"Mini", 100}, {"Redis", 0}} {
		if _, err := s.PublishWith(buildImage(t, b, p.name), PublishOpts{Tenant: tenant, ExpiresAt: p.exp}); err != nil {
			t.Fatal(err)
		}
	}
	if s.TenantStats()[tenant] <= 0 {
		t.Fatalf("tenant %q not charged: %v", tenant, s.TenantStats())
	}
	if expired, err := s.ExpireAt(200); err != nil || len(expired) != 1 || expired[0] != "Mini" {
		t.Fatalf("ExpireAt(200) = %v, %v; want [Mini]", expired, err)
	}
	if err := s.Remove("Redis"); err != nil {
		t.Fatal(err)
	}
	if ts := s.TenantStats(); len(ts) != 0 {
		t.Fatalf("tenant totals after removing everything = %v, want none", ts)
	}
	if _, err := s.Vacuum(); err != nil {
		t.Fatalf("vacuum: %v", err)
	}
}
