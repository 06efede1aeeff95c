package core

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"

	"expelliarmus/internal/master"
	"expelliarmus/internal/vmirepo"
)

// TestCommitsNeverWriteSharedMasters holds the master graphs the
// repository hands out, plus their serialized bytes, across a sequence of
// commits that mutate masters in every way a publish can: a republish that
// changes primaries and whose Algorithm 2 replace list merges another
// base, a publish that clusters new primaries onto a stored base, removes
// and a republish. The repository shares decoded masters between callers,
// so a commit must derive its own copy; at the end every held graph must
// still marshal to the bytes it had. Readers retrieve during the commits
// and re-read the held graphs, so the race detector also reports a commit
// writing to a shared graph.
func TestCommitsNeverWriteSharedMasters(t *testing.T) {
	s, b := newSystem(t, Options{NoBaseSelection: true})
	// Each image gets its own base, so the republish below folds one into
	// the other.
	for _, n := range []string{"Mini", "Redis"} {
		if _, err := s.Publish(buildImage(t, b, n)); err != nil {
			t.Fatal(err)
		}
	}
	s.opts.NoBaseSelection = false
	// hold adds every stored master, as GetMaster hands it out, to the held
	// set. It runs before each commit, so the graphs that commit reads are
	// held unless two bases share a memo slot.
	var (
		mu        sync.Mutex
		held      []*master.Graph
		heldBytes [][]byte
	)
	hold := func() {
		t.Helper()
		bases, err := s.repo.Bases()
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		defer mu.Unlock()
		for _, base := range bases {
			mg, err := s.repo.GetMaster(base.ID, nil)
			if err != nil {
				t.Fatal(err)
			}
			held = append(held, mg)
			heldBytes = append(heldBytes, mg.Marshal())
		}
	}
	hold()

	readers := []string{"Mini", "Redis"}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, len(readers))
	for _, name := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := s.RetrieveTo(io.Discard, name); err != nil && !errors.Is(err, vmirepo.ErrNotFound) {
					errs <- err
					return
				}
				mu.Lock()
				reread := held
				mu.Unlock()
				for _, mg := range reread {
					mg.Marshal()
				}
			}
		}()
	}
	stopReaders := sync.OnceFunc(func() {
		close(stop)
		wg.Wait()
		close(errs)
	})
	defer stopReaders()

	publish := func(tpl, name string) *PublishReport {
		t.Helper()
		hold()
		rep, err := s.Publish(buildAs(t, b, tpl, name, ""))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	remove := func(name string) {
		t.Helper()
		hold()
		if err := s.Remove(name); err != nil {
			t.Fatal(err)
		}
	}
	if rep := publish("PostgreSql", "Redis"); len(rep.ReplacedBases) == 0 {
		t.Fatal("the republish with changed primaries merged no base")
	}
	if rep := publish("Lemp", "Lemp"); rep.BaseStored {
		t.Fatal("Lemp stored a base instead of clustering on the stored one")
	}
	remove("Mini")
	publish("Mini", "Mini")
	publish("Redis", "Redis") // changes Redis's primaries back
	remove("Lemp")
	stopReaders()
	for err := range errs {
		t.Fatal(err)
	}
	for i, mg := range held {
		if !bytes.Equal(mg.Marshal(), heldBytes[i]) {
			t.Errorf("held master %s changed under a commit: %d bytes, was %d", mg.BaseID, len(mg.Marshal()), len(heldBytes[i]))
		}
	}
}
