package core

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"

	"expelliarmus/internal/builder"
	"expelliarmus/internal/catalog"
	"expelliarmus/internal/fstree"
	"expelliarmus/internal/pkgfmt"
	"expelliarmus/internal/pkgmeta"
	"expelliarmus/internal/pkgmgr"
	"expelliarmus/internal/semgraph"
	"expelliarmus/internal/similarity"
	"expelliarmus/internal/simio"
	"expelliarmus/internal/vdisk"
	"expelliarmus/internal/vmi"
)

// oracleStrip is Algorithm 1 lines 7–11 as Publish ran them before the
// base set was derived from the package index: the primaries, their unused
// dependencies and the user data are removed from the guest in place. The
// unused dependencies are worked out here, by a mark from the essential
// packages over what is left installed, not by the package manager. It
// returns the packages left installed, the regular files removed and the
// stripped disk's bytes.
func oracleStrip(img *vmi.Image) ([]string, int, []byte, error) {
	fs, err := img.Mount()
	if err != nil {
		return nil, 0, nil, err
	}
	mgr, err := pkgmgr.New(fs)
	if err != nil {
		return nil, 0, nil, err
	}
	filesBefore := fs.NumFiles()
	for _, p := range img.Primaries {
		if mgr.IsInstalled(p) {
			if err := mgr.Remove(p); err != nil {
				return nil, 0, nil, err
			}
		}
	}
	installed, _ := mgr.Installed()
	byName := map[string]pkgmeta.Package{}
	for _, p := range installed {
		byName[p.Name] = p
	}
	used := map[string]bool{}
	var mark func(name string)
	mark = func(name string) {
		if p, ok := byName[name]; ok && !used[name] {
			used[name] = true
			for _, d := range p.Depends {
				mark(d)
			}
		}
	}
	for _, p := range installed {
		if p.Essential {
			mark(p.Name)
		}
	}
	for _, p := range installed { // sorted by name
		if !used[p.Name] {
			if err := mgr.Remove(p.Name); err != nil {
				return nil, 0, nil, err
			}
		}
	}
	for _, root := range vmi.UserDataRoots {
		if err := fs.RemoveAll(root); err != nil {
			return nil, 0, nil, err
		}
	}
	remaining, _ := mgr.Installed()
	return pkgRefs(remaining), filesBefore - fs.NumFiles(), img.Disk.Serialize(), nil
}

// derivedBase is what Publish derives from img without writing it: the
// packages the strip would leave and the regular files it would remove,
// and the bytes of the base stripBase stores.
func derivedBase(img *vmi.Image) ([]string, int, []byte, error) {
	fs, err := fstree.Mount(img.Disk)
	if err != nil {
		return nil, 0, nil, err
	}
	mgr, err := pkgmgr.Load(fs)
	if err != nil {
		return nil, 0, nil, err
	}
	userFiles, err := collectUserData(fs)
	if err != nil {
		return nil, 0, nil, err
	}
	remaining, gone := mgr.Remaining(img.Primaries)
	removed, err := removedFiles(fs, mgr, gone, userFiles)
	if err != nil {
		return nil, 0, nil, err
	}
	base, err := stripBase(img, gone)
	if err != nil {
		return nil, 0, nil, err
	}
	return pkgRefs(remaining), removed, base.Serialize(), nil
}

func pkgRefs[P interface{ Ref() string }](pkgs []P) []string {
	out := make([]string, len(pkgs))
	for i, p := range pkgs {
		out[i] = p.Ref()
	}
	return out
}

// TestStripMatchesOracle: for every catalog template, IDE builds, a variant
// with extra user data and an image whose primary is essential, the base
// package set and cleanup count derived from the package index equal what
// the in-place strip leaves and removes — so the base identity and the
// modeled cleanup seconds are those of the strip — and the base stripBase
// stores serializes to the bytes the in-place strip leaves, so the strip
// removes the same packages in the same order.
func TestStripMatchesOracle(t *testing.T) {
	b := builder.New(catalog.NewUniverse())
	var imgs []*vmi.Image
	for _, tpl := range append(catalog.Paper19(), catalog.IDEBuilds(3)...) {
		img, err := b.Build(tpl)
		if err != nil {
			t.Fatal(err)
		}
		imgs = append(imgs, img)
	}

	variant := buildImage(t, b, "Redis").Clone()
	variant.Name = "Redis-variant"
	fs, err := variant.Mount()
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll("/srv/variant"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/srv/variant/data.bin", make([]byte, 64<<10)); err != nil {
		t.Fatal(err)
	}
	imgs = append(imgs, variant)

	essential := buildImage(t, b, "Redis").Clone()
	essential.Name = "Redis-essential-primary"
	essential.Primaries = append(essential.Primaries, catalog.NewUniverse().EssentialNames()[0])
	imgs = append(imgs, essential)

	for _, img := range imgs {
		wantPkgs, wantFiles, wantBytes, err := oracleStrip(img.Clone())
		if err != nil {
			t.Fatalf("%s: oracle strip: %v", img.Name, err)
		}
		gotPkgs, gotFiles, gotBytes, err := derivedBase(img)
		if err != nil {
			t.Fatalf("%s: derive: %v", img.Name, err)
		}
		if !slices.Equal(gotPkgs, wantPkgs) {
			t.Errorf("%s: derived base packages\n%v\nthe strip leaves\n%v", img.Name, gotPkgs, wantPkgs)
		}
		if gotFiles != wantFiles {
			t.Errorf("%s: derived cleanup removes %d files, the strip %d", img.Name, gotFiles, wantFiles)
		}
		if !bytes.Equal(gotBytes, wantBytes) {
			t.Errorf("%s: stripBase stores %d bytes that differ from the %d the strip leaves", img.Name, len(gotBytes), len(wantBytes))
		}
	}
}

// TestPublishNeverWritesImage: the caller's disk serializes to the same
// bytes after a publish that stores a base (of a lazily decoded image), one
// that reuses it, a republish, and a publish of an image without a package
// database, which a package manager from New would have created.
func TestPublishNeverWritesImage(t *testing.T) {
	s, b := newSystem(t, Options{})
	mini := buildImage(t, b, "Mini")
	lazy, err := vdisk.DeserializeLazy("Mini", bytes.NewReader(mini.Disk.Serialize()), mini.Disk.SerializedBytes())
	if err != nil {
		t.Fatal(err)
	}
	mini.Disk = lazy
	redis := buildImage(t, b, "Redis")

	bare := vdisk.New("Bare", 8<<20, vdisk.DefaultClusterSize)
	fs, err := fstree.Format(bare, 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll("/etc"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/etc/hostname", []byte("bare\n")); err != nil {
		t.Fatal(err)
	}
	bareImg := &vmi.Image{Name: "Bare", Base: mini.Base, Disk: bare}

	for _, step := range []struct {
		what      string
		img       *vmi.Image
		wantsBase bool
	}{
		{"base-storing publish", mini, true},
		{"base-reusing publish", redis, false},
		{"republish", redis, false},
		{"publish without a package database", bareImg, true},
	} {
		before := sha256.Sum256(step.img.Disk.Serialize())
		rep, err := s.Publish(step.img)
		if err != nil {
			t.Fatalf("%s: %v", step.what, err)
		}
		if rep.BaseStored != step.wantsBase {
			t.Fatalf("%s: BaseStored = %v, want %v", step.what, rep.BaseStored, step.wantsBase)
		}
		if after := sha256.Sum256(step.img.Disk.Serialize()); after != before {
			t.Errorf("%s changed the caller's disk", step.what)
		}
	}
}

// TestConcurrentPublishesShareImage: publishes that share one caller disk,
// under distinct names and at once, all commit and leave the disk as it
// was. The first ones race to store the base, so the base is stripped on
// clones of the shared disk while other publishes read it.
func TestConcurrentPublishesShareImage(t *testing.T) {
	s, b := newSystem(t, Options{})
	redis := buildImage(t, b, "Redis")
	before := sha256.Sum256(redis.Disk.Serialize())
	const n = 4
	eachConcurrently(n, func(i int) {
		img := *redis
		img.Name = fmt.Sprintf("Redis-%d", i)
		if _, err := s.Publish(&img); err != nil {
			t.Errorf("publish %s: %v", img.Name, err)
		}
	})
	if st := s.Repo().Stats(); st.VMIs != n || st.Bases != 1 {
		t.Fatalf("repository holds %d VMIs on %d bases, want %d on 1", st.VMIs, st.Bases, n)
	}
	if after := sha256.Sum256(redis.Disk.Serialize()); after != before {
		t.Fatal("concurrent publishes changed the shared disk")
	}
}

// TestPublishRefusesUninstalledPrimary: a publish naming a primary the
// image does not have is refused before any repository write, so it leaves
// no record behind that a later remove or republish would trip over.
func TestPublishRefusesUninstalledPrimary(t *testing.T) {
	s, b := newSystem(t, Options{})
	if _, err := s.Publish(buildImage(t, b, "Mini")); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	bad := buildImage(t, b, "Redis")
	bad.Primaries = append(bad.Primaries, "no-such-pkg")
	if _, err := s.Publish(bad); !errors.Is(err, ErrPrimaryNotInstalled) {
		t.Fatalf("publish with an uninstalled primary: err = %v, want ErrPrimaryNotInstalled", err)
	}
	if after, err := s.Snapshot(); err != nil || !bytes.Equal(after, snap) {
		t.Fatalf("refused publish changed the repository (snapshot err %v)", err)
	}
	if _, err := s.Publish(buildImage(t, b, "Redis")); err != nil {
		t.Fatalf("clean publish after the refusal: %v", err)
	}
	if err := s.Remove("Redis"); err != nil {
		t.Fatalf("remove after the refusal: %v", err)
	}
}

// TestPublishRefusesCommaPrimary: the VMI record joins primaries with
// ",", and the guest's status file is upload input, so an installed package
// named "evil,pkg" passes the installed-primary check. Committed, its record
// reads back as primaries "evil" and "pkg", which no master holds, and
// neither retrieves nor removes. The publish is refused before any write.
func TestPublishRefusesCommaPrimary(t *testing.T) {
	s, b := newSystem(t, Options{})
	if _, err := s.Publish(buildImage(t, b, "Mini")); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	bad := buildImage(t, b, "Redis")
	fs, err := bad.Mount()
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := pkgmgr.New(fs)
	if err != nil {
		t.Fatal(err)
	}
	evil := pkgmeta.Package{Name: "evil,pkg", Version: "1.0", Arch: "amd64", Distro: "ubuntu", InstalledSize: 1000}
	if err := mgr.InstallPackage(evil, []pkgfmt.File{{Path: "/usr/share/evil/README", Data: []byte("evil")}}); err != nil {
		t.Fatal(err)
	}
	bad.Primaries = append(bad.Primaries, evil.Name)
	if _, err := s.Publish(bad); !errors.Is(err, ErrPrimaryNotInstalled) {
		t.Fatalf("publish with a primary holding a comma: err = %v, want ErrPrimaryNotInstalled", err)
	}
	if after, err := s.Snapshot(); err != nil || !bytes.Equal(after, snap) {
		t.Fatalf("refused publish changed the repository (snapshot err %v)", err)
	}
}

// TestPublishUnformattedDiskFails: a disk without a guest filesystem
// cannot be launched, so publishing it is an error.
func TestPublishUnformattedDiskFails(t *testing.T) {
	s, _ := newSystem(t, Options{})
	raw := &vmi.Image{Name: "raw", Disk: vdisk.New("raw", 1<<20, vdisk.DefaultClusterSize)}
	if _, err := s.Publish(raw); err == nil {
		t.Fatal("published an unformatted disk")
	}
	if st := s.Repo().Stats(); st.VMIs != 0 {
		t.Fatalf("refused publish left %d VMIs", st.VMIs)
	}
}

// eagerSelectBaseImage is Algorithm 2 as selectBaseImage ran it before
// extracting stored masters' subgraphs lazily, verbatim.
func (s *System) eagerSelectBaseImage(baseID string, baseSub, ps *semgraph.Graph, m *simio.Meter) (string, []string, error) {
	if s.opts.NoBaseSelection {
		return baseID, nil, nil
	}
	type entry struct {
		id      string
		baseSub *semgraph.Graph
		psList  []*semgraph.Graph
	}
	// Line 1: the candidate list starts with the new base image.
	list3 := []entry{{id: baseID, baseSub: baseSub, psList: []*semgraph.Graph{ps}}}

	// Lines 3–12: add stored base images with simBI = 1 and their master
	// graphs' primary subgraphs.
	bases, err := s.repo.Bases()
	if err != nil {
		return "", nil, err
	}
	for _, b := range bases {
		if similarity.SimBI(baseSub.Base(), b.Attrs) != 1 {
			continue
		}
		mg, err := s.repo.GetMaster(b.ID, m)
		if err != nil {
			return "", nil, err
		}
		e := entry{id: b.ID, baseSub: mg.BaseSubgraph()}
		for _, p := range mg.PrimaryNames() {
			sub, err := mg.PrimarySubgraph(p)
			if err != nil {
				return "", nil, err
			}
			e.psList = append(e.psList, sub)
		}
		list3 = append(list3, e)
	}

	// Lines 13–26: build the quadruple list.
	type quad struct {
		id          string
		replaceList []string
		size        int64
		isNew       bool
	}
	var list4 []quad
	for i, ei := range list3 {
		var replace []string
		for j, ej := range list3 {
			if i == j || ei.id == ej.id {
				continue
			}
			compatible := true
			for _, psj := range ej.psList {
				if !similarity.Compatible(ei.baseSub, psj) {
					compatible = false
					break
				}
			}
			if compatible {
				replace = append(replace, ej.id)
			}
		}
		if len(replace) == 0 {
			continue
		}
		sort.Strings(replace)
		list4 = append(list4, quad{
			id:          ei.id,
			replaceList: replace,
			size:        ei.baseSub.TotalSize(),
			isNew:       ei.id == baseID,
		})
	}

	// Line 27: sort by replace-list size (desc), base size (asc), and
	// prefer bases already in the repository (no unnecessary storage).
	sort.Slice(list4, func(a, b int) bool {
		qa, qb := list4[a], list4[b]
		if len(qa.replaceList) != len(qb.replaceList) {
			return len(qa.replaceList) > len(qb.replaceList)
		}
		if qa.size != qb.size {
			return qa.size < qb.size
		}
		if qa.isNew != qb.isNew {
			return !qa.isNew // existing base first
		}
		return qa.id < qb.id
	})

	// Lines 28–32: pick the first quadruple involving the new base.
	for _, q := range list4 {
		if q.id == baseID {
			return q.id, q.replaceList, nil
		}
		for _, r := range q.replaceList {
			if r == baseID {
				return q.id, q.replaceList, nil
			}
		}
	}
	// Line 33: no candidate — store the new base.
	return baseID, nil, nil
}

// rebuildPackage returns a copy of img whose installed package name is
// replaced by a build of the same files at another version.
func rebuildPackage(t *testing.T, img *vmi.Image, name string) *vmi.Image {
	t.Helper()
	out := img.Clone()
	out.Name = img.Name + "-" + name + "-rebuild"
	fs, err := out.Mount()
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := pkgmgr.New(fs)
	if err != nil {
		t.Fatal(err)
	}
	p, ok, _ := mgr.Get(name)
	paths, err := mgr.OwnedFiles(name)
	if !ok || err != nil {
		t.Fatalf("%s: %s not installed (%v)", img.Name, name, err)
	}
	var files []pkgfmt.File
	for _, path := range paths {
		data, err := fs.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, pkgfmt.File{Path: path, Data: data})
	}
	if err := mgr.Remove(name); err != nil {
		t.Fatal(err)
	}
	p.Version += "+rebuild1"
	if err := mgr.InstallPackage(p, files); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSelectBaseImageMatchesEager: before every publish of a schedule, the
// lazy Algorithm 2 picks the same base and replace list as the eager one.
// The schedule alternates bases stored per image with consolidating
// publishes, so replace lists are non-empty, and adds images whose libc6
// is another build, so stored bases and primary subgraphs are also found
// incompatible.
func TestSelectBaseImageMatchesEager(t *testing.T) {
	s, b := newSystem(t, Options{})
	var imgs []*vmi.Image
	for i, tpl := range catalog.Paper19()[:12] {
		img := buildImage(t, b, tpl.Name)
		imgs = append(imgs, img)
		if i%4 == 1 {
			imgs = append(imgs, rebuildPackage(t, img, "libc6"))
		}
	}
	replaced, incompatible := 0, 0
	for i, img := range imgs {
		s.opts.NoBaseSelection = i%3 != 2
		fs, err := fstree.Mount(img.Disk)
		if err != nil {
			t.Fatal(err)
		}
		mgr, err := pkgmgr.Load(fs)
		if err != nil {
			t.Fatal(err)
		}
		installed, _ := mgr.Installed()
		ps := semgraph.Build(img.Base, installed, img.Primaries).PrimarySubgraph()
		remaining, _ := mgr.Remaining(img.Primaries)
		baseSub := semgraph.Build(img.Base, remaining, nil)
		baseID := s.baseIdentity(img, baseSub)

		gotSel, gotList, err := s.selectBaseImage(baseID, baseSub, ps, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantSel, wantList, err := s.eagerSelectBaseImage(baseID, baseSub, ps, nil)
		if err != nil {
			t.Fatal(err)
		}
		if gotSel != wantSel || !slices.Equal(gotList, wantList) {
			t.Fatalf("%s: lazy selection (%s, %v), eager (%s, %v)", img.Name, gotSel, gotList, wantSel, wantList)
		}
		if len(wantList) > 0 {
			replaced++
		}
		if _, err := s.Publish(img); err != nil {
			t.Fatal(err)
		}
		if !s.opts.NoBaseSelection && s.Repo().Stats().Bases > 1 {
			incompatible++
		}
	}
	if replaced == 0 || incompatible == 0 {
		t.Fatalf("%d selecting publishes replaced a base and %d kept an incompatible one: the comparison was vacuous", replaced, incompatible)
	}
}
