package core

import (
	"bytes"
	"crypto/sha256"
	"hash/crc32"
	"io"
	"sync"
	"testing"

	"expelliarmus/internal/retrievecache"
	"expelliarmus/internal/simio"
)

// digestSink is a DigestWriter that keeps the bytes and digests it is given.
type digestSink struct {
	bytes.Buffer
	sums [][sha256.Size]byte
}

func (d *digestSink) SetDigest(sum [sha256.Size]byte) { d.sums = append(d.sums, sum) }

// recipeOf returns the recipe a retrieval of name assembles now.
func recipeOf(t *testing.T, s *System, name string) recipe {
	t.Helper()
	unview := s.repo.ReadView()
	defer unview()
	rec, err := s.repo.GetVMI(name, nil)
	if err != nil {
		t.Fatal(err)
	}
	src, err := s.open(name, rec.BaseID, rec.Primaries, name, &RetrieveReport{Meter: &simio.Meter{}})
	if err != nil {
		t.Fatal(err)
	}
	defer src.close()
	return src.recipe()
}

// TestDigestMemoSlotMatchesBytesWritten: an uncached retrieval into a
// DigestWriter fills its recipe's memo slot with the SHA-256, CRC-32C and
// length of exactly the bytes it wrote, and hands the sink that SHA-256
// once; a repeat writes the same bytes and is handed the same digest. A
// plain sink leaves the memo alone.
func TestDigestMemoSlotMatchesBytesWritten(t *testing.T) {
	s, b := newSystem(t, Options{})
	if _, err := s.Publish(buildImage(t, b, "Redis")); err != nil {
		t.Fatal(err)
	}
	key := recipeOf(t, s, "Redis")

	var plain bytes.Buffer
	if _, _, err := s.RetrieveTo(&plain, "Redis"); err != nil {
		t.Fatal(err)
	}
	if e := s.memo.slot(key).Load(); e != nil {
		t.Fatal("a retrieval into a plain writer filled the memo")
	}

	var first digestSink
	if _, _, err := s.RetrieveTo(&first, "Redis"); err != nil {
		t.Fatal(err)
	}
	want := sha256.Sum256(first.Bytes())
	e := s.memo.slot(key).Load()
	switch {
	case !bytes.Equal(first.Bytes(), plain.Bytes()):
		t.Fatal("a DigestWriter was written other bytes than a plain writer")
	case e == nil || e.key != key:
		t.Fatal("the retrieval left its recipe's memo slot empty")
	case e.val != (retrievecache.Digest{Sum: want, CRC: crc32.Checksum(first.Bytes(), retrievecache.Castagnoli), N: int64(first.Len())}):
		t.Fatalf("memo slot (%x, %d bytes, crc %08x) does not describe the %d bytes written", e.val.Sum, e.val.N, e.val.CRC, first.Len())
	case len(first.sums) != 1 || first.sums[0] != want:
		t.Fatalf("sink was handed digests %x, want once %x", first.sums, want)
	}

	// Repeats, concurrent ones racing a slot refill after it is cleared.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i == 0 {
				s.memo.slot(key).Store(nil)
			}
			var again digestSink
			if _, _, err := s.RetrieveTo(&again, "Redis"); err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(again.Bytes(), first.Bytes()) || len(again.sums) != 1 || again.sums[0] != want {
				t.Errorf("repeat wrote %d bytes with digests %x, want the first's %d bytes and %x", again.Len(), again.sums, first.Len(), want)
			}
		}(i)
	}
	wg.Wait()
}

// TestCacheHitDigestIgnoresMemo: a hit's trailer is the SHA-256 its entry
// took at construction, so hits served with every memo slot empty are
// handed the body's digest and leave the memo empty.
func TestCacheHitDigestIgnoresMemo(t *testing.T) {
	s, b := newSystem(t, Options{CacheBytes: testCacheBytes})
	if _, err := s.Publish(buildImage(t, b, "Redis")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.RetrieveTo(io.Discard, "Redis"); err != nil { // the insert
		t.Fatal(err)
	}
	for i := range s.memo.slots {
		s.memo.slots[i].Store(nil)
	}
	for i := 0; i < 2; i++ {
		var hit digestSink
		if _, _, err := s.RetrieveTo(&hit, "Redis"); err != nil {
			t.Fatal(err)
		}
		if want := sha256.Sum256(hit.Bytes()); len(hit.sums) != 1 || hit.sums[0] != want {
			t.Fatalf("hit %d was handed digests %x, want once %x", i, hit.sums, want)
		}
	}
	for i := range s.memo.slots {
		if s.memo.slots[i].Load() != nil {
			t.Fatalf("a hit filled memo slot %d", i)
		}
	}
	if st, _ := s.CacheStats(); st.Hits != 2 || st.Puts != 1 {
		t.Fatalf("stats = %+v, want 1 put then 2 hits", st)
	}
}
