package core

import (
	"testing"

	"expelliarmus/internal/retrievecache"
)

// TestFlightStatsMeter drives a flightGroup directly and checks the
// queue-depth meter through a full flight lifecycle: leader takeoff,
// followers queuing, landing, and a second shallower flight that must
// not disturb the recorded peak.
func TestFlightStatsMeter(t *testing.T) {
	var g flightGroup
	keyA := retrievecache.NewKey("base-a", []string{"p"}, "img-a", 1)
	keyB := retrievecache.NewKey("base-b", []string{"q"}, "img-b", 1)

	if st := g.stats(); st != (FlightStats{}) {
		t.Fatalf("zero-value stats = %+v, want all zero", st)
	}

	flA, leader := g.join(keyA)
	if !leader {
		t.Fatal("first join of keyA did not lead")
	}
	for i := 0; i < 3; i++ {
		if _, led := g.join(keyA); led {
			t.Fatalf("follower %d of keyA led", i)
		}
	}
	flB, leader := g.join(keyB)
	if !leader {
		t.Fatal("first join of keyB did not lead")
	}
	if _, led := g.join(keyB); led {
		t.Fatal("follower of keyB led")
	}

	want := FlightStats{Led: 2, Active: 2, Waiting: 4, PeakDepth: 3}
	if st := g.stats(); st != want {
		t.Fatalf("mid-flight stats = %+v, want %+v", st, want)
	}

	g.finish(keyA, flA, nil, nil)
	want = FlightStats{Led: 2, Active: 1, Waiting: 1, PeakDepth: 3}
	if st := g.stats(); st != want {
		t.Fatalf("after keyA landed: stats = %+v, want %+v", st, want)
	}

	g.finish(keyB, flB, nil, nil)
	want = FlightStats{Led: 2, Active: 0, Waiting: 0, PeakDepth: 3}
	if st := g.stats(); st != want {
		t.Fatalf("after all landed: stats = %+v, want %+v", st, want)
	}

	// A later flight with a shallower queue bumps Led but not PeakDepth.
	flA2, leader := g.join(keyA)
	if !leader {
		t.Fatal("fresh join of a finished key did not lead")
	}
	if _, led := g.join(keyA); led {
		t.Fatal("follower of second keyA flight led")
	}
	g.finish(keyA, flA2, nil, nil)
	want = FlightStats{Led: 3, Active: 0, Waiting: 0, PeakDepth: 3}
	if st := g.stats(); st != want {
		t.Fatalf("after shallow reflight: stats = %+v, want %+v", st, want)
	}
}
