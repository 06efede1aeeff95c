package expelliarmus

import (
	"sync"
	"testing"
)

// TestConcurrentSystemStress shares one System between 8 goroutines that
// build, publish, retrieve and remove disjoint template sets, while the
// main goroutine takes Save snapshots mid-traffic and verifies each one
// restores to a repository whose recorded VMIs are all retrievable.
func TestConcurrentSystemStress(t *testing.T) {
	sys := New()
	names := Templates()
	const workers = 8
	if len(names) < 2*workers {
		t.Fatalf("catalog too small: %d templates", len(names))
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := names[2*w : 2*w+2]
			for _, name := range mine {
				img, err := sys.BuildImage(name)
				if err != nil {
					t.Errorf("worker %d build %s: %v", w, name, err)
					return
				}
				if err := img.WriteUserFile("/home/user/"+name+".txt", []byte("data for "+name)); err != nil {
					t.Errorf("worker %d user file %s: %v", w, name, err)
					return
				}
				pub, err := sys.Publish(img)
				if err != nil {
					t.Errorf("worker %d publish %s: %v", w, name, err)
					return
				}
				if pub.Seconds <= 0 {
					t.Errorf("worker %d publish %s: no modeled cost", w, name)
					return
				}
				got, ret, err := sys.Retrieve(name)
				if err != nil {
					t.Errorf("worker %d retrieve %s: %v", w, name, err)
					return
				}
				if got.Name() != name || ret.Seconds <= 0 {
					t.Errorf("worker %d retrieve %s: got %q (%.1fs)", w, name, got.Name(), ret.Seconds)
					return
				}
				if !got.HasFile("/home/user/" + name + ".txt") {
					t.Errorf("worker %d retrieve %s: user data missing", w, name)
					return
				}
			}
			// Churn: remove the first image and publish it again, racing
			// the garbage collector against other workers' publishes.
			if err := sys.Remove(mine[0]); err != nil {
				t.Errorf("worker %d remove %s: %v", w, mine[0], err)
				return
			}
			img, err := sys.BuildImage(mine[0])
			if err != nil {
				t.Errorf("worker %d rebuild %s: %v", w, mine[0], err)
				return
			}
			if _, err := sys.Publish(img); err != nil {
				t.Errorf("worker %d republish %s: %v", w, mine[0], err)
				return
			}
		}(w)
	}
	go func() { wg.Wait(); close(done) }()

	// Save/Restore round trips while traffic is in flight. Every snapshot
	// must be internally consistent: Restore succeeds and every recorded
	// VMI assembles.
	snapshots := 0
	for {
		select {
		case <-done:
			if snapshots == 0 {
				t.Fatal("traffic finished before any mid-flight snapshot")
			}
			if t.Failed() {
				return
			}
			// Final round trip on the quiesced system.
			restored, err := Restore(mustSave(t, sys), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := restored.RepoStats(), sys.RepoStats(); got != want {
				t.Fatalf("restored stats %+v != live stats %+v", got, want)
			}
			for _, name := range sys.sys.Repo().VMIs() {
				if _, _, err := restored.Retrieve(name); err != nil {
					t.Fatalf("restored retrieve %s: %v", name, err)
				}
			}
			return
		default:
		}
		restored, err := Restore(mustSave(t, sys), Options{})
		if err != nil {
			t.Fatalf("mid-flight snapshot %d: %v", snapshots, err)
		}
		for _, name := range restored.sys.Repo().VMIs() {
			if _, _, err := restored.Retrieve(name); err != nil {
				t.Fatalf("mid-flight snapshot %d: VMI %s not retrievable: %v", snapshots, name, err)
			}
		}
		snapshots++
	}
}

// TestConcurrentPublishRetrieve publishes six images from concurrent
// callers: semantic dedup holds across them (apache2, shared by Base and
// Lapp, is exported exactly once), every image retrieves, and the
// caller's Image stays usable after its Publish.
func TestConcurrentPublishRetrieve(t *testing.T) {
	sys := New()
	names := []string{"Mini", "Redis", "PostgreSql", "Django", "Base", "Lapp"}
	imgs := make([]*Image, len(names))
	for i, n := range names {
		img, err := sys.BuildImage(n)
		if err != nil {
			t.Fatal(err)
		}
		imgs[i] = img
	}

	pubs := make([]*PublishResult, len(names))
	eachConcurrently(len(names), func(i int) {
		p, err := sys.Publish(imgs[i])
		if err != nil {
			t.Errorf("publish %s: %v", names[i], err)
			return
		}
		if p.Seconds <= 0 {
			t.Errorf("publish %s: no modeled cost", names[i])
		}
		pubs[i] = p
	})
	if t.Failed() {
		return
	}

	exporters := 0
	for _, p := range pubs {
		for _, e := range p.Exported {
			if e == "apache2" {
				exporters++
			}
		}
	}
	if exporters != 1 {
		t.Fatalf("apache2 exported by %d publishes, want exactly 1", exporters)
	}

	eachConcurrently(len(names), func(i int) {
		got, ret, err := sys.Retrieve(names[i])
		if err != nil {
			t.Errorf("retrieve %s: %v", names[i], err)
			return
		}
		if got.Name() != names[i] || ret.Seconds <= 0 {
			t.Errorf("retrieve %s: got %q (%.1fs)", names[i], got.Name(), ret.Seconds)
		}
	})

	if _, err := imgs[0].Stats(); err != nil {
		t.Fatalf("input image consumed by Publish: %v", err)
	}
}

// eachConcurrently runs fn(0), ..., fn(n-1), each on its own goroutine,
// and waits for all of them.
func eachConcurrently(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}
