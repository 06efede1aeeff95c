package expelliarmus

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestCompactionUnderTraffic is the compaction-under-traffic stress
// test, reusing the publish-vs-retrieve storm harness: publishers
// republish versioned user data and retrievers assert version floors
// (any stale byte fails) while a dedicated goroutine forces metadata-WAL
// compactions as fast as it can — on top of the aggressive auto
// compaction a tiny WALCompactBytes already causes on every Sync. The
// pinned contracts: traffic racing a compaction never errors, never
// observes a stale or partial state, the retrieval cache serves zero
// stale bytes across compaction boundaries, and the repository reopened
// after the storm (state reconstructed from the last compacted snapshot
// + WAL tail) serves every final version — i.e. no reader or recovery
// path can ever see a partially-written snapshot.
func TestCompactionUnderTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("compaction stress test skipped in -short mode")
	}
	dir := t.TempDir()
	sys, err := OpenAt(dir, Options{CacheBytes: 64 << 20, WALCompactBytes: 2048})
	if err != nil {
		t.Fatalf("OpenAt: %v", err)
	}
	names := []string{"Mini", "Redis", "Base"}

	built := map[string]*Image{}
	for _, n := range names {
		img, err := sys.BuildImage(n)
		if err != nil {
			t.Fatal(err)
		}
		built[n] = img
	}
	publish := func(name string, v int64) error {
		img := &Image{inner: built[name].inner.Clone()}
		if err := img.WriteUserFile("/home/user/version.txt", []byte(fmt.Sprintf("v%d", v))); err != nil {
			return err
		}
		_, err := sys.Publish(img)
		return err
	}
	checkVersion := func(name string, low int64, img *Image) error {
		fs, err := img.inner.Mount()
		if err != nil {
			return err
		}
		data, err := fs.ReadFile("/home/user/version.txt")
		if err != nil {
			return fmt.Errorf("version file: %w", err)
		}
		v, err := strconv.ParseInt(strings.TrimPrefix(string(data), "v"), 10, 64)
		if err != nil {
			return fmt.Errorf("version stamp %q: %w", data, err)
		}
		if v < low {
			return fmt.Errorf("STALE READ ACROSS COMPACTION: got version %d, floor was %d", v, low)
		}
		return nil
	}

	floor := map[string]*atomic.Int64{}
	for _, n := range names {
		floor[n] = &atomic.Int64{}
		if err := publish(n, 1); err != nil {
			t.Fatalf("seed publish %s: %v", n, err)
		}
		floor[n].Store(1)
	}
	if _, err := sys.Sync(); err != nil {
		t.Fatalf("seed Sync: %v", err)
	}

	const versions = 5
	var publishers sync.WaitGroup
	for _, name := range names {
		publishers.Add(1)
		go func(name string) {
			defer publishers.Done()
			for v := int64(2); v <= versions; v++ {
				if err := publish(name, v); err != nil {
					t.Errorf("publish %s v%d: %v", name, v, err)
					return
				}
				floor[name].Store(v)
			}
		}(name)
	}

	stop := make(chan struct{})
	var compactions atomic.Int64
	var compactor sync.WaitGroup
	compactor.Add(1)
	go func() {
		defer compactor.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st, err := sys.Compact()
			if err != nil {
				t.Errorf("compact under traffic: %v", err)
				return
			}
			if !st.Compacted {
				t.Errorf("forced compaction did not compact: %+v", st)
				return
			}
			compactions.Add(1)
		}
	}()

	var retrievers sync.WaitGroup
	for w := 0; w < 4; w++ {
		retrievers.Add(1)
		go func(w int) {
			defer retrievers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := names[(w+i)%len(names)]
				low := floor[name].Load()
				img, _, err := sys.Retrieve(name)
				if err != nil {
					t.Errorf("retriever %d: retrieve %s: %v", w, name, err)
					return
				}
				if err := checkVersion(name, low, img); err != nil {
					t.Errorf("retriever %d: %s: %v", w, name, err)
					return
				}
			}
		}(w)
	}

	publishers.Wait()
	close(stop)
	retrievers.Wait()
	compactor.Wait()
	if t.Failed() {
		return
	}
	if compactions.Load() < 2 {
		t.Fatalf("only %d compactions raced the traffic; the storm never exercised the window", compactions.Load())
	}

	// Quiesced: every image reads its final version — twice, the second
	// time from the cache, so a compaction can also never have poisoned a
	// warm entry.
	for _, name := range names {
		before := sys.CacheStats()
		for i := 0; i < 2; i++ {
			img, _, err := sys.Retrieve(name)
			if err != nil {
				t.Fatalf("final retrieve %s: %v", name, err)
			}
			if err := checkVersion(name, versions, img); err != nil {
				t.Fatalf("final retrieve %s: %v", name, err)
			}
		}
		if after := sys.CacheStats(); after.Hits <= before.Hits {
			t.Fatalf("quiet double-retrieval of %s produced no cache hit (stats %+v)", name, after)
		}
	}
	if err := sys.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: the state reconstructed from the last compacted snapshot
	// plus the WAL tail must hold every final version.
	re, err := OpenAt(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after compaction storm: %v", err)
	}
	defer re.Close()
	for _, name := range names {
		img, _, err := re.Retrieve(name)
		if err != nil {
			t.Fatalf("reopened retrieve %s: %v", name, err)
		}
		if err := checkVersion(name, versions, img); err != nil {
			t.Fatalf("reopened %s: %v", name, err)
		}
	}
}
