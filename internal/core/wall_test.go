package core

import (
	"io"
	"maps"
	"slices"
	"testing"
)

// TestWallCoversChargedPhases checks the wall-clock twin's structure, not
// its readings: every phase a cold retrieval or an assembly charges, with
// the base memo empty and then full, or a cache miss that seeds an entry
// charges, has a wall entry, and a cache hit's
// wall entries are its own, not the replayed phases of the miss that
// seeded its entry: it replays those and times nothing.
func TestWallCoversChargedPhases(t *testing.T) {
	s, b := newSystem(t, Options{CacheBytes: 64 << 20})
	for _, name := range []string{"Mini", "Redis"} {
		if _, err := s.Publish(buildImage(t, b, name)); err != nil {
			t.Fatal(err)
		}
	}
	covers := func(what string, rep *RetrieveReport) {
		t.Helper()
		wall := rep.Meter.WallSeconds()
		for ph := range rep.Meter.PhaseSeconds() {
			if _, ok := wall[ph]; !ok {
				t.Errorf("%s charged %s but has no wall entry: wall %v", what, ph, slices.Sorted(maps.Keys(wall)))
			}
		}
	}
	noCache := NewSystemWithRepo(s.repo, testDev, Options{})
	for _, leg := range []string{"memo miss", "memo hit"} {
		_, rep, err := noCache.RetrieveTo(io.Discard, "Redis")
		if err != nil {
			t.Fatal(err)
		}
		covers("cold retrieval, "+leg, rep)
		if _, rep, err = noCache.AssembleTo(io.Discard, "custom", []string{"redis-server"}, "Redis"); err != nil {
			t.Fatal(err)
		}
		covers("assembly, "+leg, rep)
	}

	_, miss, err := s.RetrieveTo(io.Discard, "Redis") // seeds the entry
	if err != nil {
		t.Fatal(err)
	}
	covers("cached miss", miss)
	_, hit, err := s.RetrieveTo(io.Discard, "Redis")
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := s.CacheStats(); st.Hits != 1 {
		t.Fatalf("%d cache hits, want 1", st.Hits)
	}
	if wall := hit.Meter.WallSeconds(); len(wall) != 0 {
		t.Errorf("the hit's wall entries are %v, want none: it replays modeled phases only", wall)
	}
	for _, ph := range []string{"db", "copy", "launch", "reset", "import"} {
		if _, ok := hit.Meter.PhaseSeconds()[ph]; !ok {
			t.Errorf("the hit did not replay %s", ph)
		}
	}
}
