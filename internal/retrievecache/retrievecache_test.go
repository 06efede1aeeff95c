package retrievecache

import (
	"bytes"
	"crypto/sha256"
	"hash/crc32"
	"sync"
	"testing"
	"time"

	"expelliarmus/internal/pkgmeta"
	"expelliarmus/internal/simio"
)

func testEntry(size int) *Entry {
	return NewEntry(bytes.Repeat([]byte{0x42}, size), pkgmeta.BaseAttrs{},
		[]string{"redis"}, int64(size),
		map[simio.Phase]time.Duration{simio.PhaseCopy: time.Second})
}

// TestNewEntryCopies pins the ownership contract: NewEntry copies the
// imported list and phase map, so a caller reusing its slices/maps cannot
// retroactively change a cached report.
func TestNewEntryCopies(t *testing.T) {
	imported := []string{"redis"}
	phases := map[simio.Phase]time.Duration{simio.PhaseCopy: time.Second}
	e := NewEntry([]byte("img"), pkgmeta.BaseAttrs{}, imported, 3, phases)
	imported[0] = "mutated"
	phases[simio.PhaseCopy] = time.Hour
	if e.Imported[0] != "redis" || e.Phases[simio.PhaseCopy] != time.Second {
		t.Fatalf("entry aliases caller data: %v %v", e.Imported, e.Phases)
	}
}

// TestNewKeyDoesNotMutateInput checks the sort in NewKey operates on a
// copy — callers hand in live VMIRecord slices.
func TestNewKeyDoesNotMutateInput(t *testing.T) {
	primaries := []string{"z", "a", "m"}
	NewKey("base", primaries, "vmi", 1)
	if primaries[0] != "z" || primaries[1] != "a" || primaries[2] != "m" {
		t.Fatalf("NewKey reordered the caller's slice: %v", primaries)
	}
}

func TestNewRejectsNonPositiveBudget(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

// TestEvictionKeepsBytesExact walks a long insert sequence over a small
// budget and checks the byte accounting never drifts: after every Put the
// resident total equals the sum of resident entry costs.
func TestEvictionKeepsBytesExact(t *testing.T) {
	c := New(10_000)
	keys := make([]Key, 40)
	for i := range keys {
		keys[i] = NewKey("base", []string{"p"}, "vmi", uint64(i))
	}
	for i, k := range keys {
		c.Put(k, testEntry(100*(1+i%7)))
		var sum int64
		c.mu.Lock()
		for _, n := range c.items {
			sum += n.cost
		}
		bytes, max := c.bytes, c.maxBytes
		c.mu.Unlock()
		if bytes != sum {
			t.Fatalf("after put %d: accounted %d != resident sum %d", i, bytes, sum)
		}
		if bytes > max {
			t.Fatalf("after put %d: budget exceeded (%d > %d)", i, bytes, max)
		}
	}
}

// TestConcurrentSameKey hammers one key from many goroutines mixing Put,
// Get and Remove; under -race this pins the locking story, and the
// invariant that a hit always carries self-consistent entry contents.
func TestConcurrentSameKey(t *testing.T) {
	c := New(1 << 20)
	key := NewKey("base", []string{"p"}, "vmi", 1)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				switch (w + i) % 3 {
				case 0:
					c.Put(key, testEntry(512))
				case 1:
					e, err := c.Get(key)
					if err != nil {
						t.Errorf("Get: %v", err)
						return
					}
					if e != nil && len(e.Image) != 512 {
						t.Errorf("hit with %d bytes", len(e.Image))
						return
					}
				case 2:
					c.Remove(key)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestNewEntryRecordsDigest: every entry carries its image's SHA-256,
// CRC-32C and length from construction — the digest a server sends instead
// of hashing a hit — including one Put refuses as over budget, and neither
// Put nor a verified Get changes it.
func TestNewEntryRecordsDigest(t *testing.T) {
	want := func(e *Entry) Digest {
		return Digest{sha256.Sum256(e.Image), crc32.Checksum(e.Image, Castagnoli), int64(len(e.Image))}
	}
	c := New(1 << 20)
	e, big := testEntry(4096), testEntry(2<<20)
	for _, x := range []*Entry{e, big} {
		if got := x.Digest(); got != want(x) {
			t.Fatalf("NewEntry of %d bytes recorded %+v, want %+v", len(x.Image), got, want(x))
		}
	}
	key := NewKey("base", nil, "vmi", 1)
	if !c.Put(key, e) {
		t.Fatal("Put refused an entry within budget")
	}
	if c.Put(NewKey("base", nil, "vmi", 2), big) {
		t.Fatal("Put accepted an entry over the whole budget")
	}
	hit, err := c.Get(key)
	switch {
	case err != nil || hit != e:
		t.Fatalf("Get = %p, %v; want the entry Put", hit, err)
	case e.Digest() != want(e) || big.Digest() != want(big):
		t.Fatal("Put or Get changed an entry's digest")
	}
}
