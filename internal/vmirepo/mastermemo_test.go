package vmirepo

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"expelliarmus/internal/master"
	"expelliarmus/internal/semgraph"
	"expelliarmus/internal/simio"
)

// memoMaster returns a master for baseID clustering the given primaries.
func memoMaster(t *testing.T, baseID string, primaries ...string) *master.Graph {
	t.Helper()
	mg := master.New(baseID, baseSubgraph())
	for _, p := range primaries {
		ps := semgraph.New(attrs)
		ps.AddVertex(pkg(p), semgraph.KindPrimary)
		if err := mg.AddPrimarySubgraph(ps); err != nil {
			t.Fatal(err)
		}
	}
	return mg
}

// freshMaster requires GetMaster(id) to marshal to exactly the bytes
// stored under id, and returns the graph it handed out.
func freshMaster(t *testing.T, r *Repo, id, step string) *master.Graph {
	t.Helper()
	stored, ok := r.meta().Bucket(bucketMasters).Get([]byte(id))
	if !ok {
		t.Fatalf("%s: no stored master for %s", step, id)
	}
	got, err := r.GetMaster(id, nil)
	if err != nil {
		t.Fatalf("%s: GetMaster(%s): %v", step, id, err)
	}
	if !bytes.Equal(got.Marshal(), stored) {
		t.Fatalf("%s: GetMaster(%s) marshals to %d bytes that differ from the %d stored", step, id, len(got.Marshal()), len(stored))
	}
	return got
}

// TestMasterMemo walks the decoded-master memo through every way a stored
// master changes under it — writer puts (changing and elided), removal,
// a re-put after removal, a follower WAL batch, a follower snapshot reset,
// a reopen, and two base IDs sharing a memo slot — and requires GetMaster
// to answer the stored bytes after each.
func TestMasterMemo(t *testing.T) {
	dir := t.TempDir()
	dev := simio.NewDevice(simio.PaperProfile())
	w, err := OpenAt(dir, dev)
	if err != nil {
		t.Fatal(err)
	}
	f := newFollower()
	put := func(mg *master.Graph) {
		t.Helper()
		if err := w.PutMaster(mg, nil); err != nil {
			t.Fatal(err)
		}
	}

	put(memoMaster(t, "base-1", "redis"))
	first := freshMaster(t, w, "base-1", "first put")
	if again := freshMaster(t, w, "base-1", "repeat read"); again != first {
		t.Fatal("a repeat read of an unchanged master decoded it again")
	}

	put(memoMaster(t, "base-1", "redis", "nginx"))
	changed := freshMaster(t, w, "base-1", "changing put")
	if changed == first {
		t.Fatal("a changing put returned the previous graph")
	}

	put(memoMaster(t, "base-1", "redis", "nginx"))
	if elided := freshMaster(t, w, "base-1", "elided put"); elided != changed {
		t.Fatal("an elided put (identical bytes) did not return the memoized graph")
	}

	if err := w.RemoveMaster("base-1", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := w.GetMaster("base-1", nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetMaster after RemoveMaster: %v, want ErrNotFound", err)
	}
	put(memoMaster(t, "base-1", "redis", "nginx"))
	freshMaster(t, w, "base-1", "re-put after remove")

	// Follower: the initial catch-up, then a WAL batch that changes the
	// master.
	if _, err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	shipMeta(t, w, f)
	before := freshMaster(t, f, "base-1", "follower catch-up")
	put(memoMaster(t, "base-1", "redis"))
	if _, err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	epoch, _ := f.Follower().Position()
	shipMeta(t, w, f)
	if e, _ := f.Follower().Position(); e != epoch {
		t.Fatalf("the batch switched epochs (%d -> %d); it must apply as WAL", epoch, e)
	}
	if after := freshMaster(t, f, "base-1", "follower WAL batch"); after == before {
		t.Fatal("a follower batch that changed the master left the previous graph")
	}

	// Follower: a compaction ships a snapshot that changes the master.
	put(memoMaster(t, "base-1", "nginx"))
	if _, err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	shipMeta(t, w, f)
	if e, _ := f.Follower().Position(); e == epoch {
		t.Fatal("the compaction did not switch the follower's epoch")
	}
	freshMaster(t, f, "base-1", "follower snapshot reset")

	// Two base IDs on one memo slot: each read evicts the other's entry.
	other := "base-2"
	for i := 0; StripeFor(other) != StripeFor("base-1"); i++ {
		other = fmt.Sprintf("base-2-%d", i)
	}
	put(memoMaster(t, other, "redis", "nginx"))
	for i := 0; i < 3; i++ {
		for _, id := range []string{"base-1", other} {
			if got := freshMaster(t, w, id, "shared slot"); got.BaseID != id {
				t.Fatalf("shared slot: GetMaster(%s) returned the master of %s", id, got.BaseID)
			}
		}
	}
	all, err := w.Masters()
	if err != nil || len(all) != 2 {
		t.Fatalf("Masters = %d graphs, %v", len(all), err)
	}
	for _, mg := range all {
		freshMaster(t, w, mg.BaseID, "Masters")
	}

	// A reopen reads the masters back from the metadata WAL.
	if _, err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	for _, id := range []string{"base-1", other} {
		want[id] = freshMaster(t, w, id, "before reopen").Marshal()
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenAt(dir, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for id, b := range want {
		if got := freshMaster(t, re, id, "reopen").Marshal(); !bytes.Equal(got, b) {
			t.Fatalf("reopen: master %s changed across the reopen", id)
		}
	}
}

// TestMasterMemoConcurrentReaders has readers decode and re-read a master
// while a writer alternates it between two values, so the race detector
// sees every memo slot access; each read must marshal to one of the two.
func TestMasterMemoConcurrentReaders(t *testing.T) {
	r, _ := newRepo()
	a, b := memoMaster(t, "base-1", "redis"), memoMaster(t, "base-1", "redis", "nginx")
	valid := [][]byte{a.Marshal(), b.Marshal()}
	if err := r.PutMaster(a, nil); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				mg, err := r.GetMaster("base-1", nil)
				if err != nil {
					errs <- err
					return
				}
				if got := mg.Marshal(); !bytes.Equal(got, valid[0]) && !bytes.Equal(got, valid[1]) {
					errs <- fmt.Errorf("read a master that was never stored")
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if err := r.PutMaster([]*master.Graph{a, b}[i%2], nil); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
