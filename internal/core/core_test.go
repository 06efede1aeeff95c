package core

import (
	"bytes"
	"reflect"
	"slices"
	"sort"
	"testing"

	"expelliarmus/internal/builder"
	"expelliarmus/internal/catalog"
	"expelliarmus/internal/fstree"
	"expelliarmus/internal/pkgmgr"
	"expelliarmus/internal/simio"
	"expelliarmus/internal/vmi"
)

var testDev = simio.NewDevice(simio.PaperProfile().Scaled(catalog.ByteScale, catalog.FileScale))

func newSystem(t *testing.T, opts Options) (*System, *builder.Builder) {
	t.Helper()
	return NewSystem(testDev, opts), builder.New(catalog.NewUniverse())
}

func buildImage(t *testing.T, b *builder.Builder, name string) *vmi.Image {
	t.Helper()
	tpl, ok := catalog.Find(name)
	if !ok {
		t.Fatalf("template %s not found", name)
	}
	img, err := b.Build(tpl)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestPublishMiniStoresBase(t *testing.T) {
	s, b := newSystem(t, Options{})
	rep, err := s.Publish(buildImage(t, b, "Mini"))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.BaseStored {
		t.Fatal("first publish did not store a base image")
	}
	if rep.Similarity != 0 {
		t.Fatalf("Similarity = %v on empty repo, want 0 (Table II row 1)", rep.Similarity)
	}
	if len(rep.Exported) != 0 {
		t.Fatalf("Mini exported packages: %v", rep.Exported)
	}
	st := s.Repo().Stats()
	if st.Bases != 1 || st.VMIs != 1 {
		t.Fatalf("repo stats: %+v", st)
	}
	// Publish time is dominated by the base store; the paper reports
	// 39.52 s for Mini.
	if sec := rep.Seconds(); sec < 20 || sec > 60 {
		t.Errorf("Mini publish = %.1fs, want ~39.5s (band [20,60])", sec)
	}
}

func TestPublishSecondImageDedupsBase(t *testing.T) {
	s, b := newSystem(t, Options{})
	if _, err := s.Publish(buildImage(t, b, "Mini")); err != nil {
		t.Fatal(err)
	}
	sizeAfterMini := s.Repo().SizeBytes()

	rep, err := s.Publish(buildImage(t, b, "Redis"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.BaseStored {
		t.Fatal("Redis stored a second base image despite identical base")
	}
	if rep.Similarity < 0.9 {
		t.Fatalf("Redis similarity = %.3f, want ~0.97 (Table II)", rep.Similarity)
	}
	if len(rep.Exported) != 1 || rep.Exported[0] != "redis-server" {
		t.Fatalf("Redis exported %v, want [redis-server]", rep.Exported)
	}
	// Repo grows only by the redis package and user data.
	growth := s.Repo().SizeBytes() - sizeAfterMini
	if growth > catalog.Real(40*1e6) {
		t.Fatalf("repo grew %d bytes for Redis, want < 40 paper-MB", growth)
	}
	if st := s.Repo().Stats(); st.Bases != 1 {
		t.Fatalf("bases = %d, want 1", st.Bases)
	}
	// Redis publish is fast (paper: 10.28 s).
	if sec := rep.Seconds(); sec < 5 || sec > 20 {
		t.Errorf("Redis publish = %.1fs, want ~10s", sec)
	}
}

func TestPublishSharedPackagesNotReexported(t *testing.T) {
	s, b := newSystem(t, Options{})
	for _, n := range []string{"Mini", "Base"} {
		if _, err := s.Publish(buildImage(t, b, n)); err != nil {
			t.Fatal(err)
		}
	}
	// Lemp shares mysql-server with Base: only nginx and php-fpm are new.
	rep, err := s.Publish(buildImage(t, b, "Lemp"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(rep.Exported)
	want := []string{"nginx", "php-fpm"}
	if len(rep.Exported) != 2 || rep.Exported[0] != want[0] || rep.Exported[1] != want[1] {
		t.Fatalf("Lemp exported %v, want %v", rep.Exported, want)
	}
	if rep.Skipped == 0 {
		t.Fatal("Lemp skipped no packages despite overlap with Base")
	}
}

func TestPublishRetrieveRoundTrip(t *testing.T) {
	s, b := newSystem(t, Options{})
	orig := buildImage(t, b, "Redis")

	// Capture ground truth before publishing consumes the image.
	origFS, _ := orig.Mount()
	var userPaths []string
	userData := map[string][]byte{}
	for _, root := range vmi.UserDataRoots {
		origFS.Walk(root, func(fi fstree.FileInfo) error {
			if !fi.IsDir {
				data, _ := origFS.ReadFile(fi.Path)
				userPaths = append(userPaths, fi.Path)
				userData[fi.Path] = data
			}
			return nil
		})
	}
	origMgr, _ := pkgmgr.New(origFS)
	origPkgs, _ := origMgr.Installed()

	if _, err := s.Publish(buildImage(t, b, "Mini")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Publish(orig); err != nil {
		t.Fatal(err)
	}

	got, rep, err := s.Retrieve("Redis")
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "Redis" || len(got.Primaries) != 1 {
		t.Fatalf("retrieved metadata: %+v", got)
	}

	// Functional equivalence: same package set, same user data.
	gotFS, err := got.Mount()
	if err != nil {
		t.Fatal(err)
	}
	gotMgr, _ := pkgmgr.New(gotFS)
	gotPkgs, _ := gotMgr.Installed()
	if len(gotPkgs) != len(origPkgs) {
		t.Fatalf("retrieved %d packages, original had %d", len(gotPkgs), len(origPkgs))
	}
	for i := range origPkgs {
		if gotPkgs[i].Ref() != origPkgs[i].Ref() {
			t.Fatalf("package %d: %s != %s", i, gotPkgs[i].Ref(), origPkgs[i].Ref())
		}
	}
	if !gotFS.Exists("/usr/bin/redis-server") {
		t.Fatal("redis binary missing after retrieval")
	}
	for _, p := range userPaths {
		data, err := gotFS.ReadFile(p)
		if err != nil {
			t.Fatalf("user data %s missing: %v", p, err)
		}
		if !bytes.Equal(data, userData[p]) {
			t.Fatalf("user data %s corrupted", p)
		}
	}
	// Temporary assembly machinery cleaned up.
	if gotFS.Exists(localRepoDir) {
		t.Fatal("local repository not cleaned up")
	}
	if gotFS.Exists("/etc/apt/sources.list.d/local.list") {
		t.Fatal("local sources config not removed")
	}
	// Retrieval time near the paper's 22.05 s for Redis.
	if sec := rep.Seconds(); sec < 10 || sec > 40 {
		t.Errorf("Redis retrieval = %.1fs, want ~22s", sec)
	}
	// Phase decomposition (Fig. 5a): copy, launch, reset, import all present.
	for _, ph := range []simio.Phase{simio.PhaseCopy, simio.PhaseLaunch, simio.PhaseReset, simio.PhaseImport} {
		if rep.Meter.Phase(ph) == 0 {
			t.Errorf("retrieval phase %s has zero cost", ph)
		}
	}
}

func TestRetrieveUnknownVMI(t *testing.T) {
	s, _ := newSystem(t, Options{})
	if _, _, err := s.Retrieve("ghost"); err == nil {
		t.Fatal("retrieved unknown VMI")
	}
}

// TestRetrieveMiniNoImports: a retrieval that imports no package is the
// stored base plus the user data.
func TestRetrieveMiniNoImports(t *testing.T) {
	s, b := newSystem(t, Options{})
	mini := buildImage(t, b, "Mini")
	srcFS, err := mini.Mount()
	if err != nil {
		t.Fatal(err)
	}
	wantUser, err := collectUserData(srcFS)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Publish(mini); err != nil {
		t.Fatal(err)
	}
	got, rep, err := s.Retrieve("Mini")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Imported) != 0 {
		t.Fatalf("Mini imported %v", rep.Imported)
	}
	fs, _ := got.Mount()
	mgr, _ := pkgmgr.New(fs)
	if !mgr.IsInstalled("libc6") {
		t.Fatal("base packages missing")
	}
	// Churn was reset: the retrieved Mini is pristine.
	if fs.Exists("/var/log/run") {
		t.Fatal("instance churn survived sysprep")
	}
	gotUser, err := collectUserData(fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotUser) == 0 || !reflect.DeepEqual(gotUser, wantUser) {
		t.Errorf("retrieved %d user files, published %d (or they differ)", len(gotUser), len(wantUser))
	}
}

// TestSysprepDefaults: assembly's reset cleared every sysprep path the
// published image filled (a user data root is filled again by the
// import), kept the package database and binaries, and was charged.
func TestSysprepDefaults(t *testing.T) {
	s, b := newSystem(t, Options{})
	mini := buildImage(t, b, "Mini")
	srcFS, err := mini.Mount()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Publish(mini); err != nil {
		t.Fatal(err)
	}
	got, rep, err := s.Retrieve("Mini")
	if err != nil {
		t.Fatal(err)
	}
	fs, _ := got.Mount()
	for _, p := range vmi.SysprepPaths {
		if slices.Contains(vmi.UserDataRoots, p) {
			continue
		}
		if !srcFS.Exists(p) {
			t.Fatalf("published Mini has no %s: the reset check is vacuous", p)
		}
		if fs.Exists(p) {
			t.Errorf("%s survived sysprep", p)
		}
	}
	if !fs.Exists(pkgmgr.StatusPath) {
		t.Error("sysprep wiped the package database")
	}
	if !fs.Exists("/usr/bin") {
		t.Error("sysprep wiped the binaries")
	}
	if rep.Meter.Phase(simio.PhaseReset) == 0 {
		t.Error("reset cost not charged")
	}
}

func TestAssembleNovelCombination(t *testing.T) {
	s, b := newSystem(t, Options{})
	for _, n := range []string{"Mini", "Redis", "Base"} {
		if _, err := s.Publish(buildImage(t, b, n)); err != nil {
			t.Fatal(err)
		}
	}
	// redis-server + apache2 were never uploaded together.
	img, rep, err := s.Assemble("custom", []string{"redis-server", "apache2"}, "")
	if err != nil {
		t.Fatal(err)
	}
	fs, _ := img.Mount()
	mgr, _ := pkgmgr.New(fs)
	for _, p := range []string{"redis-server", "apache2", "libaprutil1", "libc6"} {
		if !mgr.IsInstalled(p) {
			t.Fatalf("assembled image missing %s", p)
		}
	}
	if len(rep.Imported) < 3 {
		t.Fatalf("imported = %v", rep.Imported)
	}
	// Unavailable package combinations fail.
	if _, _, err := s.Assemble("bad", []string{"mongodb-org"}, ""); err == nil {
		t.Fatal("assembled VMI with package never published")
	}
}

func TestPublishIsIdempotentPerName(t *testing.T) {
	s, b := newSystem(t, Options{})
	if _, err := s.Publish(buildImage(t, b, "Redis")); err != nil {
		t.Fatal(err)
	}
	size1 := s.Repo().SizeBytes()
	// Republishing the same image (rebuilt, identical content) adds nothing
	// but the republished user data (deduped as a blob) and DB noise.
	if _, err := s.Publish(buildImage(t, b, "Redis")); err != nil {
		t.Fatal(err)
	}
	size2 := s.Repo().SizeBytes()
	if size2-size1 > 64*1024 {
		t.Fatalf("republish grew repo by %d bytes", size2-size1)
	}
}

func TestNoBaseSelectionStoresEveryBase(t *testing.T) {
	s, b := newSystem(t, Options{NoBaseSelection: true})
	for _, n := range []string{"Mini", "Redis"} {
		if _, err := s.Publish(buildImage(t, b, n)); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Repo().Stats(); st.Bases != 2 {
		t.Fatalf("bases = %d with selection disabled, want 2", st.Bases)
	}

	// With selection enabled the second base replaces nothing (it is never
	// stored), keeping exactly one.
	s2, b2 := newSystem(t, Options{})
	for _, n := range []string{"Mini", "Redis"} {
		if _, err := s2.Publish(buildImage(t, b2, n)); err != nil {
			t.Fatal(err)
		}
	}
	if st := s2.Repo().Stats(); st.Bases != 1 {
		t.Fatalf("bases = %d with selection enabled, want 1", st.Bases)
	}
}

func TestBaseSelectionReplacesObsoleteBases(t *testing.T) {
	// Publish with selection disabled to accumulate redundant bases, then
	// flip it on: the next publish should consolidate.
	dev := testDev
	s := NewSystem(dev, Options{NoBaseSelection: true})
	b := builder.New(catalog.NewUniverse())
	for _, n := range []string{"Mini", "Redis"} {
		img := buildImage(t, b, n)
		if _, err := s.Publish(img); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Repo().Stats(); st.Bases != 2 {
		t.Fatalf("setup: bases = %d", st.Bases)
	}
	s.opts.NoBaseSelection = false
	rep, err := s.Publish(buildImage(t, b, "PostgreSql"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ReplacedBases) == 0 {
		t.Fatal("consolidating publish replaced no bases")
	}
	if st := s.Repo().Stats(); st.Bases != 1 {
		t.Fatalf("bases = %d after consolidation, want 1", st.Bases)
	}
	// All three VMIs remain retrievable after consolidation.
	for _, n := range []string{"Redis", "PostgreSql"} {
		img, _, err := s.Retrieve(n)
		if err != nil {
			t.Fatalf("retrieve %s after consolidation: %v", n, err)
		}
		fs, _ := img.Mount()
		mgr, _ := pkgmgr.New(fs)
		if n == "Redis" && !mgr.IsInstalled("redis-server") {
			t.Fatal("consolidated retrieval lost redis")
		}
	}
}

func TestSemanticVariantExportsEverything(t *testing.T) {
	s, b := newSystem(t, Options{NoSemanticDedup: true})
	if _, err := s.Publish(buildImage(t, b, "Base")); err != nil {
		t.Fatal(err)
	}
	// Lemp shares mysql-server with Base; the variant repacks it anyway.
	rep, err := s.Publish(buildImage(t, b, "Lemp"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped == 0 {
		t.Fatal("variant should still skip storing duplicate refs")
	}
	// Export phase cost exceeds the dedup system's for the same image.
	s2, b2 := newSystem(t, Options{})
	if _, err := s2.Publish(buildImage(t, b2, "Base")); err != nil {
		t.Fatal(err)
	}
	rep2, err := s2.Publish(buildImage(t, b2, "Lemp"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Meter.Phase(simio.PhaseExport) <= rep2.Meter.Phase(simio.PhaseExport) {
		t.Fatalf("variant export %.1fs not above dedup export %.1fs",
			rep.Meter.Phase(simio.PhaseExport).Seconds(),
			rep2.Meter.Phase(simio.PhaseExport).Seconds())
	}
}

func TestRepoSizeMonotoneAndBounded(t *testing.T) {
	s, b := newSystem(t, Options{})
	var prev int64
	var published int64
	for _, n := range []string{"Mini", "Redis", "PostgreSql"} {
		img := buildImage(t, b, n)
		st, _ := img.Stats()
		published += st.SerializedBytes
		if _, err := s.Publish(img); err != nil {
			t.Fatal(err)
		}
		size := s.Repo().SizeBytes()
		if size < prev {
			t.Fatalf("repo shrank: %d -> %d", prev, size)
		}
		if size > published+256*1024 {
			t.Fatalf("repo %d exceeds total published bytes %d (+slack)", size, published)
		}
		prev = size
	}
}
