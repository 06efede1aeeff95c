package expelliarmus

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"expelliarmus/internal/api"
	"expelliarmus/internal/chunkpool"
	"expelliarmus/internal/wire"
)

var updateWork = flag.Bool("update", false, "re-record testdata/work.golden")

// raceEnabled is set by a race-only file: the race detector allocates for
// its own bookkeeping, and sync.Pool drops a quarter of what is put back
// under it, so neither heap counts nor pool chunks are checked with it.
var raceEnabled bool

const workGolden = "testdata/work.golden"

// work is what one operation costs in memory: heap allocations and bytes,
// and the chunks chunkpool had to make for it, whoever asked: the vdisk
// arena, a serialization's buffer or an upload's section.
type work struct {
	allocs, bytes, chunks int64
}

// poolChunks counts the pool's chunks in the heap profile: allocations of
// chunkpool.Size bytes made by the pool's New, which are the chunks the
// pool did not hold when a caller asked for one. Counting where the chunk
// was made, not who asked, sees a chunk an operation keeps even when the
// pool hands it out again and the replacement is made under another
// caller. The profile samples every allocation made while
// runtime.MemProfileRate is 1 and publishes it at the next collection.
func poolChunks(t *testing.T) int64 {
	t.Helper()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, ok := runtime.MemProfile(recs, true)
	if !ok {
		t.Fatal("the heap profile grew while it was read")
	}
	var chunks int64
	for _, r := range recs[:n] {
		if r.AllocObjects == 0 || r.AllocBytes != r.AllocObjects*chunkpool.Size {
			continue
		}
		for frames := runtime.CallersFrames(r.Stack()); ; {
			f, more := frames.Next()
			if strings.HasPrefix(f.Function, "expelliarmus/internal/chunkpool.") {
				chunks += r.AllocObjects
				break
			}
			if !more {
				break
			}
		}
	}
	return chunks
}

// measure runs op once to warm the memos, pools and cache it uses, then
// takes the fewest allocations and bytes of five more runs, each with the
// collector off, and counts the pool's chunks of one further run. Before
// every run it calls setup, if any, outside what is counted. It runs them
// all on one P: a sync.Pool keeps an item per P, so a run that moved to
// another P would miss the item the warm-up left.
func measure(t *testing.T, setup, op func() error) work {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	prepare := func() {
		if setup == nil {
			return
		}
		if err := setup(); err != nil {
			t.Fatal(err)
		}
	}
	prepare()
	if err := op(); err != nil {
		t.Fatal(err)
	}
	w := work{allocs: math.MaxInt64, bytes: math.MaxInt64}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for range 5 {
		prepare()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := op()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		w.allocs = min(w.allocs, int64(after.Mallocs-before.Mallocs))
		w.bytes = min(w.bytes, int64(after.TotalAlloc-before.TotalAlloc))
	}
	prepare()
	before := poolChunks(t)
	rate := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	err := op()
	runtime.MemProfileRate = rate
	if err != nil {
		t.Fatal(err)
	}
	w.chunks = poolChunks(t) - before
	return w
}

// TestWorkLedger pins what an operation costs in heap allocations, heap
// bytes and chunks the pool made, on the memory backend and on a disk-backed
// System, against testdata/work.golden: counts exactly, bytes within 5 %.
// The operations are a cold retrieval (the retrieval cache off, the base
// and package memos warm), a warm retrieval (a cache hit), an AssembleTo,
// the removal of a Redis variant whose template survives on its base,
// followed by a publish of the variant that restores it, and the server's
// publish of that variant: its envelope decoded into pooled chunks, the
// publish, and the chunks released. A row's setup runs before each of its
// runs, uncounted. A change that moves a row re-records the file with
// -update and says why.
func TestWorkLedger(t *testing.T) {
	images := []string{"Mini", "Redis", "Django", "Desktop"}
	variant, err := New().BuildImage("Redis")
	if err != nil {
		t.Fatal(err)
	}
	variant.inner.Name = "Redis-variant"
	if err := variant.WriteUserFile("/home/user/variant.bin", make([]byte, 64<<10)); err != nil {
		t.Fatal(err)
	}
	var envelope bytes.Buffer
	if err := variant.EncodeWire(&envelope); err != nil {
		t.Fatal(err)
	}
	backends := []struct {
		name string
		open func(t *testing.T) func(cacheBytes int64) *System
	}{
		{"memory", func(t *testing.T) func(int64) *System {
			pub := New()
			publishAll(t, pub, images)
			snap, err := pub.Save()
			if err != nil {
				t.Fatal(err)
			}
			return func(cacheBytes int64) *System {
				s, err := Restore(snap, Options{CacheBytes: cacheBytes})
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
		}},
		{"disk", func(t *testing.T) func(int64) *System {
			dir := t.TempDir()
			pub, err := OpenAt(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			publishAll(t, pub, images)
			if err := pub.Close(); err != nil {
				t.Fatal(err)
			}
			return func(cacheBytes int64) *System {
				s, err := OpenAt(dir, Options{CacheBytes: cacheBytes})
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
		}},
	}
	ops := []struct {
		name       string
		cacheBytes int64
		setup, op  func(s *System) error
	}{
		{"cold-retrieve", 0, nil, func(s *System) error { _, _, err := s.RetrieveTo(io.Discard, "Desktop"); return err }},
		{"warm-retrieve", 64 << 20, nil, func(s *System) error { _, _, err := s.RetrieveTo(io.Discard, "Django"); return err }},
		{"assemble", 0, nil, func(s *System) error {
			_, _, err := s.sys.AssembleTo(io.Discard, "custom", []string{"redis-server"}, "Django")
			return err
		}},
		{"remove", 0, func(s *System) error { _, err := s.Publish(variant); return err }, func(s *System) error {
			if err := s.Remove("Redis-variant"); err != nil {
				return err
			}
			_, err := s.Publish(variant)
			return err
		}},
		{"publish", 0, func(s *System) error {
			if err := s.Remove("Redis-variant"); err != nil && !errors.Is(err, api.ErrNotFound) {
				return err
			}
			return nil
		}, func(s *System) error {
			img, meta, section, err := wire.DecodeImage(bytes.NewReader(envelope.Bytes()))
			if err != nil {
				return err
			}
			_, err = s.sys.PublishWith(img, meta)
			section.Release()
			return err
		}},
	}
	var got []string
	for _, b := range backends {
		open := b.open(t)
		for _, o := range ops {
			s := open(o.cacheBytes)
			var setup func() error
			if o.setup != nil {
				setup = func() error { return o.setup(s) }
			}
			w := measure(t, setup, func() error { return o.op(s) })
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			got = append(got, fmt.Sprintf("%s %s %d %d %d", b.name, o.name, w.allocs, w.bytes, w.chunks))
		}
	}
	if *updateWork {
		header := "# backend op allocs bytes chunks: see TestWorkLedger (work_test.go); re-record with go test -run TestWorkLedger -update .\n"
		if err := os.WriteFile(workGolden, []byte(header+strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readWorkGolden(t)
	if len(want) != len(got) {
		t.Fatalf("%s has %d rows, the ledger %d", workGolden, len(want), len(got))
	}
	for i, row := range got {
		var g, w work
		var gb, gop, wb, wop string
		fmt.Sscan(row, &gb, &gop, &g.allocs, &g.bytes, &g.chunks)
		fmt.Sscan(want[i], &wb, &wop, &w.allocs, &w.bytes, &w.chunks)
		t.Logf("%s %s: %d allocations (golden %d), %d bytes (%d), %d pool chunks (%d)", gb, gop, g.allocs, w.allocs, g.bytes, w.bytes, g.chunks, w.chunks)
		switch {
		case gb != wb || gop != wop:
			t.Errorf("row %d is %s %s, golden %s %s", i, gb, gop, wb, wop)
		case raceEnabled:
		case g.chunks != w.chunks:
			t.Errorf("%s %s: %d pool chunks, golden %d", gb, gop, g.chunks, w.chunks)
		case g.allocs != w.allocs:
			t.Errorf("%s %s: %d allocations, golden %d", gb, gop, g.allocs, w.allocs)
		case math.Abs(float64(g.bytes-w.bytes)) > 0.05*float64(w.bytes):
			t.Errorf("%s %s: %d bytes, golden %d (more than 5 %% apart)", gb, gop, g.bytes, w.bytes)
		}
	}
}

func publishAll(t *testing.T, s *System, names []string) {
	t.Helper()
	for _, name := range names {
		img, err := s.BuildImage(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Publish(img); err != nil {
			t.Fatal(err)
		}
	}
}

// readWorkGolden returns the golden file's rows, comments dropped.
func readWorkGolden(t *testing.T) []string {
	t.Helper()
	f, err := os.Open(workGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var rows []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			rows = append(rows, line)
		}
	}
	return rows
}
