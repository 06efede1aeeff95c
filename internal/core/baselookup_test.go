package core

import (
	"bytes"
	"errors"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"expelliarmus/internal/master"
	"expelliarmus/internal/pkgmgr"
	"expelliarmus/internal/semgraph"
	"expelliarmus/internal/similarity"
	"expelliarmus/internal/vmirepo"
)

// rebuildByUnion is retire's master rebuild as it was before it took the
// survivors' primaries in one closure, kept verbatim as the reference: the
// old master's base subgraph, then each surviving record's primaries'
// subgraphs clustered one by one. add stands for the loop's
// AddPrimarySubgraph call, so a caller can route each subgraph through a
// cross-check on the partly rebuilt master.
func rebuildByUnion(old *master.Graph, sameBase []vmirepo.VMIRecord, add func(*master.Graph, *semgraph.Graph) error) (*master.Graph, error) {
	rebuilt := master.New(old.BaseID, old.BaseSubgraph())
	for _, sv := range sameBase {
		for _, p := range sv.Primaries {
			sub, err := old.PrimarySubgraph(p)
			if err != nil {
				return nil, err
			}
			if err := add(rebuilt, sub); err != nil {
				return nil, err
			}
		}
	}
	return rebuilt, nil
}

// TestBaseLookupMatchesSubgraph checks the master graph's in-place base
// lookups against the extracted base subgraph as reference:
// AddPrimarySubgraph rejects as incompatible exactly what
// similarity.Compatible(m.BaseSubgraph(), ps) rejects, and vmiPackageRefs
// returns the refs m.BaseSubgraph() lacks. It covers every master against
// every primary subgraph of every VMI (the master's and the image's own)
// after publishing the Table II catalog and after each step of a 30-step
// churn of removals, publishes and republishes under another image's
// primaries, and replays each Remove's master rebuild through
// rebuildByUnion and checkedAdd. After every step each committed master
// must also be rebuildByUnion of itself over the records clustered on it,
// byte for byte, and the refcount bucket must equal a fresh survey.
func TestBaseLookupMatchesSubgraph(t *testing.T) {
	names := templateNames(19)
	imgs := buildCatalog(t, names)
	s := NewSystem(testDev, Options{})
	// The primary subgraph each image's publish clusters (core.go's ps).
	ownPS := make([]*semgraph.Graph, len(imgs))
	for i, img := range imgs {
		fs, err := img.Mount()
		if err != nil {
			t.Fatal(err)
		}
		mgr, err := pkgmgr.New(fs)
		if err != nil {
			t.Fatal(err)
		}
		installed, err := mgr.Installed()
		if err != nil {
			t.Fatal(err)
		}
		ownPS[i] = semgraph.Build(img.Base, installed, img.Primaries).PrimarySubgraph()
		if _, err := s.Publish(img.Clone()); err != nil {
			t.Fatal(err)
		}
	}

	checkedAdd := func(m *master.Graph, ps *semgraph.Graph) error {
		t.Helper()
		compatible := similarity.Compatible(m.BaseSubgraph(), ps)
		err := m.AddPrimarySubgraph(ps)
		var conflict *master.ErrVersionConflict
		if incompatible := err != nil && !errors.As(err, &conflict); incompatible == compatible {
			t.Errorf("master %s: base subgraph says compatible=%v, AddPrimarySubgraph: %v", m.BaseID, compatible, err)
		}
		return err
	}
	check := func(step string) {
		t.Helper()
		masters, err := s.repo.Masters()
		if err != nil {
			t.Fatal(err)
		}
		var subs []*semgraph.Graph
		clustered := map[string][]vmirepo.VMIRecord{}
		for _, name := range s.repo.VMIs() {
			rec, err := s.repo.GetVMI(name, nil)
			if err != nil {
				t.Fatal(err)
			}
			clustered[rec.BaseID] = append(clustered[rec.BaseID], rec)
			mg, err := s.repo.GetMaster(rec.BaseID, nil)
			if err != nil {
				t.Fatal(err)
			}
			baseSub := mg.BaseSubgraph()
			want := map[string]bool{}
			for _, p := range rec.Primaries {
				sub, err := mg.PrimarySubgraph(p)
				if err != nil {
					t.Fatal(err)
				}
				subs = append(subs, sub)
				for _, v := range sub.Vertices() {
					if !baseSub.HasVertex(v.Pkg.Name) {
						want[v.Pkg.Ref()] = true
					}
				}
			}
			got, err := s.vmiPackageRefs(rec)
			if err != nil {
				t.Fatal(err)
			}
			if wantRefs := slices.Sorted(maps.Keys(want)); !reflect.DeepEqual(got, wantRefs) {
				t.Fatalf("%s: vmiPackageRefs(%s) = %v, base subgraph gives %v", step, name, got, wantRefs)
			}
		}
		subs = append(subs, ownPS...)
		for _, m := range masters {
			for _, ps := range subs {
				checkedAdd(m.Clone(), ps) //nolint:errcheck
			}
			want, err := rebuildByUnion(m, clustered[m.BaseID], (*master.Graph).AddPrimarySubgraph)
			if err != nil {
				t.Fatalf("%s: master %s: %v", step, m.BaseID, err)
			}
			if !bytes.Equal(m.Marshal(), want.Marshal()) {
				t.Fatalf("%s: master %s clusters %v, its records %v", step, m.BaseID, m.PrimaryNames(), clustered[m.BaseID])
			}
		}
		survey, err := s.surveyPackageRefs()
		if err != nil {
			t.Fatal(err)
		}
		if got := s.repo.PackageRefs(); !reflect.DeepEqual(got, survey) {
			t.Fatalf("%s: refcount bucket %v, survey %v", step, got, survey)
		}
	}
	// remove replays retire's master rebuild through rebuildByUnion, each
	// survivor's subgraph added through checkedAdd, and requires the
	// committed master to marshal to the replay's bytes.
	remove := func(name string) {
		t.Helper()
		rec, err := s.repo.GetVMI(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		old, err := s.repo.GetMaster(rec.BaseID, nil)
		if err != nil {
			t.Fatal(err)
		}
		var survivors []vmirepo.VMIRecord
		for _, other := range s.repo.VMIs() {
			orec, err := s.repo.GetVMI(other, nil)
			if err != nil {
				t.Fatal(err)
			}
			if other != name && orec.BaseID == rec.BaseID {
				survivors = append(survivors, orec)
			}
		}
		if err := s.Remove(name); err != nil {
			t.Fatal(err)
		}
		if len(survivors) == 0 {
			return
		}
		want, err := rebuildByUnion(old, survivors, checkedAdd)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.repo.GetMaster(rec.BaseID, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Marshal(), want.Marshal()) {
			t.Fatalf("remove %s: committed master differs from the rebuild replay", name)
		}
	}

	check("catalog")
	live := make([]bool, len(imgs))
	for i := range live {
		live[i] = true
	}
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 30; step++ {
		i, j := rng.Intn(len(imgs)), rng.Intn(len(imgs))
		switch {
		case live[i] && step%3 == 2:
			// Republish name i with image j's primaries.
			img := imgs[j].Clone()
			img.Name = names[i]
			if _, err := s.Publish(img); err != nil {
				t.Fatal(err)
			}
		case live[i]:
			remove(names[i])
			live[i] = false
		default:
			if _, err := s.Publish(imgs[i].Clone()); err != nil {
				t.Fatal(err)
			}
			live[i] = true
		}
		check(names[i])
	}
}
