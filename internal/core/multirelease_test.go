package core

import (
	"strings"
	"testing"

	"expelliarmus/internal/builder"
	"expelliarmus/internal/catalog"
	"expelliarmus/internal/metadb"
	"expelliarmus/internal/metawal"
	"expelliarmus/internal/pkgmgr"
	"expelliarmus/internal/vmi"
	"expelliarmus/internal/vmirepo"
)

// TestMultiReleaseSeparateMasters publishes images from two releases of
// the same distribution: simBI = 0.5 between their bases, so Algorithm 2
// must keep both base images and cluster each VMI on its own master graph.
func TestMultiReleaseSeparateMasters(t *testing.T) {
	s := NewSystem(testDev, Options{})
	xenial := builder.New(catalog.NewUniverseFor(catalog.ReleaseXenial))
	bionic := builder.New(catalog.NewUniverseFor(catalog.ReleaseBionic))

	tpl, _ := catalog.Find("Redis")
	imgX, err := xenial.Build(tpl)
	if err != nil {
		t.Fatal(err)
	}
	// The newer release needs a distinct VMI name in the repository.
	tplB := tpl
	tplB.Name = "Redis-bionic"
	imgB, err := bionic.Build(tplB)
	if err != nil {
		t.Fatal(err)
	}
	if imgX.Base == imgB.Base {
		t.Fatal("releases share base attrs")
	}

	repX, err := s.Publish(imgX)
	if err != nil {
		t.Fatal(err)
	}
	repB, err := s.Publish(imgB)
	if err != nil {
		t.Fatal(err)
	}
	if !repX.BaseStored || !repB.BaseStored {
		t.Fatal("each release must store its own base image")
	}
	if repB.Similarity != 0 {
		t.Fatalf("cross-release similarity = %v, want 0 (no master with matching attrs)", repB.Similarity)
	}
	if len(repB.ReplacedBases) != 0 {
		t.Fatalf("cross-release base replacement: %v", repB.ReplacedBases)
	}
	if st := s.Repo().Stats(); st.Bases != 2 {
		t.Fatalf("bases = %d, want 2 (one per release)", st.Bases)
	}
	// Both packages are stored: same name, different versions.
	masters, err := s.Repo().Masters()
	if err != nil || len(masters) != 2 {
		t.Fatalf("masters = %d, %v", len(masters), err)
	}

	// Both VMIs retrieve correctly with their own release's packages.
	for _, name := range []string{"Redis", "Redis-bionic"} {
		img, _, err := s.Retrieve(name)
		if err != nil {
			t.Fatalf("retrieve %s: %v", name, err)
		}
		fs, _ := img.Mount()
		mgr, _ := pkgmgr.New(fs)
		p, ok, err := mgr.Get("redis-server")
		if err != nil || !ok {
			t.Fatalf("%s: redis-server missing", name)
		}
		wantVer := catalog.ReleaseXenial.PkgVersion
		if name == "Redis-bionic" {
			wantVer = catalog.ReleaseBionic.PkgVersion
		}
		if p.Version != wantVer {
			t.Fatalf("%s: redis version %s, want %s", name, p.Version, wantVer)
		}
	}
}

// TestCrossDistroIsolation checks the SimBI = 0 path: a different
// distribution never interacts with existing masters at all.
func TestCrossDistroIsolation(t *testing.T) {
	s := NewSystem(testDev, Options{})
	ubuntu := builder.New(catalog.NewUniverse())
	debian := builder.New(catalog.NewUniverseFor(catalog.ReleaseStretch))

	tpl, _ := catalog.Find("Mini")
	imgU, err := ubuntu.Build(tpl)
	if err != nil {
		t.Fatal(err)
	}
	tplD := tpl
	tplD.Name = "Mini-debian"
	imgD, err := debian.Build(tplD)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Publish(imgU); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Publish(imgD)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.BaseStored || rep.Similarity != 0 {
		t.Fatalf("debian publish: stored=%v sim=%v", rep.BaseStored, rep.Similarity)
	}
	if st := s.Repo().Stats(); st.Bases != 2 {
		t.Fatalf("bases = %d", st.Bases)
	}
	// Assembly never mixes releases: requesting a debian-only package
	// combination from the ubuntu master fails cleanly... both bases offer
	// no primaries here, so any assembly fails.
	if _, _, err := s.Assemble("x", []string{"redis-server"}, ""); err == nil {
		t.Fatal("assembled package absent from every master")
	}
}

// TestPublishSimilarityReadsOnlyItsClass plants an undecodable master
// record in a disk repository's metadata log. SimG compares the upload
// only against masters of its own attribute class, so damage to another
// class's master must leave a Xenial publish's similarity exactly what an
// undamaged repository reports; damage to a master of its own class must
// fail the publish instead of reporting similarity 0.
func TestPublishSimilarityReadsOnlyItsClass(t *testing.T) {
	xenial := builder.New(catalog.NewUniverseFor(catalog.ReleaseXenial))
	bionic := builder.New(catalog.NewUniverseFor(catalog.ReleaseBionic))
	tpl, _ := catalog.Find("Redis")
	tpl.Name = "Redis-bionic"
	imgB, err := bionic.Build(tpl)
	if err != nil {
		t.Fatal(err)
	}
	mini, redis := buildImage(t, xenial, "Mini"), buildImage(t, xenial, "Redis")

	ref := NewSystem(testDev, Options{})
	for _, img := range []*vmi.Image{mini, imgB} {
		if _, err := ref.Publish(img.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	want, err := ref.Publish(redis.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if want.Similarity == 0 {
		t.Fatal("undamaged Redis publish has similarity 0")
	}

	dir := t.TempDir()
	open := func() *System {
		t.Helper()
		repo, err := vmirepo.OpenAt(dir, testDev)
		if err != nil {
			t.Fatal(err)
		}
		return NewSystemWithRepo(repo, testDev, Options{})
	}
	damageMaster := func(baseID string) {
		t.Helper()
		wal, _, err := metawal.Open(dir, metawal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		wal.Record(metadb.Op{Kind: metadb.OpPut, Bucket: "masters", Key: []byte(baseID), Value: []byte("not a master graph")})
		if _, err := wal.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := wal.Close(); err != nil {
			t.Fatal(err)
		}
	}

	s := open()
	if _, err := s.Publish(mini.Clone()); err != nil {
		t.Fatal(err)
	}
	repB, err := s.Publish(imgB.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	damageMaster(repB.BaseID)

	s = open()
	got, err := s.Publish(redis.Clone())
	if err != nil {
		t.Fatalf("publish beside another class's damaged master: %v", err)
	}
	if got.Similarity != want.Similarity {
		t.Fatalf("similarity = %v beside another class's damaged master, want %v", got.Similarity, want.Similarity)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	damageMaster(got.BaseID)

	s = open()
	defer s.Close()
	if _, err := s.Publish(buildImage(t, xenial, "PostgreSql")); err == nil || !strings.Contains(err.Error(), "core: publish PostgreSql") {
		t.Fatalf("publish beside its own class's damaged master: err = %v, want a publish error", err)
	}
}
