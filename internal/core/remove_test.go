package core

import (
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"

	"expelliarmus/internal/builder"
	"expelliarmus/internal/catalog"
	"expelliarmus/internal/vmirepo"
)

func TestRemoveGarbageCollectsUniquePackages(t *testing.T) {
	s, b := newSystem(t, Options{})
	for _, n := range []string{"Mini", "Redis", "Base"} {
		if _, err := s.Publish(buildImage(t, b, n)); err != nil {
			t.Fatal(err)
		}
	}
	sizeBefore := s.Repo().SizeBytes()
	if !s.Repo().HasPackage("redis-server=1.0-ubuntu1/amd64", nil) {
		t.Fatal("setup: redis package missing")
	}

	if err := s.Remove("Redis"); err != nil {
		t.Fatal(err)
	}
	// Redis's unique package is gone; Base's packages survive.
	if s.Repo().HasPackage("redis-server=1.0-ubuntu1/amd64", nil) {
		t.Fatal("redis package survived removal")
	}
	if !s.Repo().HasPackage("mysql-server=1.0-ubuntu1/amd64", nil) {
		t.Fatal("unrelated package removed")
	}
	if s.Repo().SizeBytes() >= sizeBefore {
		t.Fatal("removal did not reclaim space")
	}
	// The VMI is gone; the others still retrieve.
	if _, _, err := s.Retrieve("Redis"); err == nil {
		t.Fatal("removed VMI still retrievable")
	}
	for _, n := range []string{"Mini", "Base"} {
		if _, _, err := s.Retrieve(n); err != nil {
			t.Fatalf("retrieve %s after removal: %v", n, err)
		}
	}
	// Assembly can no longer offer redis-server.
	if _, _, err := s.Assemble("x", []string{"redis-server"}, ""); err == nil {
		t.Fatal("assembled garbage-collected package")
	}
	// But still offers Base's packages.
	if _, _, err := s.Assemble("y", []string{"apache2"}, ""); err != nil {
		t.Fatalf("assembly of surviving package failed: %v", err)
	}
}

func TestRemoveKeepsSharedPackages(t *testing.T) {
	s, b := newSystem(t, Options{})
	for _, n := range []string{"Base", "Lemp"} { // share mysql-server
		if _, err := s.Publish(buildImage(t, b, n)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Remove("Base"); err != nil {
		t.Fatal(err)
	}
	// mysql-server is still needed by Lemp.
	if !s.Repo().HasPackage("mysql-server=1.0-ubuntu1/amd64", nil) {
		t.Fatal("shared package garbage-collected")
	}
	// apache2 was only Base's.
	if s.Repo().HasPackage("apache2=1.0-ubuntu1/amd64", nil) {
		t.Fatal("apache2 survived though only Base used it")
	}
	if _, _, err := s.Retrieve("Lemp"); err != nil {
		t.Fatalf("Lemp broken after Base removal: %v", err)
	}
}

func TestRemoveLastVMIDropsBase(t *testing.T) {
	s, b := newSystem(t, Options{})
	if _, err := s.Publish(buildImage(t, b, "Redis")); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("Redis"); err != nil {
		t.Fatal(err)
	}
	st := s.Repo().Stats()
	if st.VMIs != 0 || st.Bases != 0 || st.Packages != 0 {
		t.Fatalf("repo not empty after last removal: %+v", st)
	}
	// Blob bytes fully reclaimed.
	if st.BlobBytes != 0 {
		t.Fatalf("blob bytes remain: %d", st.BlobBytes)
	}
	// Republish works after total removal.
	if _, err := s.Publish(buildImage(t, b, "Redis")); err != nil {
		t.Fatalf("republish after removal: %v", err)
	}
}

// TestRepublishChangedPrimariesRetiresOldPrimary: a republish retires the
// record it replaces like Remove does, so the master stops advertising a
// primary only the replaced record had, whose package was just collected —
// also when Algorithm 2 folds the replaced record's base into the one the
// republish selects.
func TestRepublishChangedPrimariesRetiresOldPrimary(t *testing.T) {
	for _, folded := range []bool{false, true} {
		s, b := newSystem(t, Options{NoBaseSelection: folded})
		for _, n := range []string{"Mini", "Redis"} {
			if _, err := s.Publish(buildImage(t, b, n)); err != nil {
				t.Fatal(err)
			}
		}
		s.opts.NoBaseSelection = false
		old, err := s.repo.GetVMI("Redis", nil)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Publish(buildAs(t, b, "PostgreSql", "Redis", ""))
		if err != nil {
			t.Fatal(err)
		}
		if got := slices.Contains(rep.ReplacedBases, old.BaseID); got != folded {
			t.Fatalf("folded=%v: the republish replaced the old base: %v", folded, got)
		}
		mg, err := s.repo.GetMaster(rep.BaseID, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := mg.PrimaryNames(); !reflect.DeepEqual(got, []string{"postgresql-9.5"}) {
			t.Fatalf("folded=%v: master primaries after the republish = %v, want [postgresql-9.5]", folded, got)
		}
		_, _, err = s.AssembleTo(io.Discard, "custom", []string{"redis-server"}, "")
		if err == nil || !strings.Contains(err.Error(), "no stored base provides") {
			t.Fatalf("folded=%v: assembling the retired primary: %v, want no stored base providing it", folded, err)
		}
	}
}

// TestRepublishOnOtherReleaseRetiresOldBase: republished from another
// release, an image moves to another base; the base it left holds no
// record any more and goes with its master, as Remove would drop it.
func TestRepublishOnOtherReleaseRetiresOldBase(t *testing.T) {
	s := NewSystem(testDev, Options{})
	tpl, _ := catalog.Find("Redis")
	for _, rel := range []catalog.Release{catalog.ReleaseXenial, catalog.ReleaseBionic} {
		img, err := builder.New(catalog.NewUniverseFor(rel)).Build(tpl)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Publish(img); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Repo().Stats(); st.Bases != 1 {
		t.Fatalf("%d bases after republishing on another release, want 1", st.Bases)
	}
	if err := s.Remove("Redis"); err != nil {
		t.Fatal(err)
	}
	if st := s.Repo().Stats(); st.Bases != 0 || st.Packages != 0 || st.BlobBytes != 0 {
		t.Fatalf("repository not empty after removing the republished image: %+v", st)
	}
}

func TestRemoveUnknownVMI(t *testing.T) {
	s, _ := newSystem(t, Options{})
	if err := s.Remove("ghost"); err == nil {
		t.Fatal("removed unknown VMI")
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s, b := newSystem(t, Options{})
	for _, n := range []string{"Mini", "Redis"} {
		if _, err := s.Publish(buildImage(t, b, n)); err != nil {
			t.Fatal(err)
		}
	}
	img, err := s.Repo().Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	restored, err := vmirepo.Load(img, testDev)
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewSystemWithRepo(restored, testDev, Options{})
	if s2.Repo().SizeBytes() != s.Repo().SizeBytes() {
		t.Fatalf("sizes differ: %d vs %d", s2.Repo().SizeBytes(), s.Repo().SizeBytes())
	}
	got, _, err := s2.Retrieve("Redis")
	if err != nil {
		t.Fatal(err)
	}
	fs, _ := got.Mount()
	if !fs.Exists("/usr/bin/redis-server") {
		t.Fatal("restored repository lost content")
	}
	// The restored repo keeps deduplicating new publishes.
	rep, err := s2.Publish(buildImage(t, b, "Lemp"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.BaseStored {
		t.Fatal("restored repo re-stored the base")
	}
	// Corrupt snapshots are rejected.
	if _, err := vmirepo.Load(img[:40], testDev); err == nil {
		t.Fatal("loaded truncated snapshot")
	}
	if _, err := vmirepo.Load([]byte("garbage"), testDev); err == nil {
		t.Fatal("loaded garbage")
	}
}
