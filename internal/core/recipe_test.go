package core

import (
	"bytes"
	"crypto/sha256"
	"hash/crc32"
	"testing"

	"expelliarmus/internal/builder"
	"expelliarmus/internal/catalog"
	"expelliarmus/internal/retrievecache"
	"expelliarmus/internal/vmi"
	"expelliarmus/internal/vmirepo"
)

// withoutUserData empties img's user-data roots, so it publishes no archive.
func withoutUserData(t *testing.T, img *vmi.Image) *vmi.Image {
	t.Helper()
	fs, err := img.Mount()
	if err != nil {
		t.Fatal(err)
	}
	for _, root := range vmi.UserDataRoots {
		if err := fs.RemoveAll(root); err != nil {
			t.Fatal(err)
		}
	}
	return img
}

// digested writes one image into a digestSink with op and requires the
// sink to have been handed the SHA-256 of its bytes, once.
func digested(t *testing.T, what string, op func(*digestSink) error) []byte {
	t.Helper()
	var sink digestSink
	if err := op(&sink); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if want := sha256.Sum256(sink.Bytes()); len(sink.sums) != 1 || sink.sums[0] != want {
		t.Fatalf("%s was handed digests %x, want once %x", what, sink.sums, want)
	}
	return sink.Bytes()
}

// TestRecipeDigestMemo: the digest memo is keyed by what an assembly is
// made of, so a retrieval hashes an image once per recipe, whatever
// generation or VMI name asks for it, on a cache-off system, on a cache-on
// one (whose cache-miss leaders take their entries' digests from the
// memo) and for AssembleTo; and a recipe that changes, or a memo entry
// that does not describe the bytes, never vouches for an image.
func TestRecipeDigestMemo(t *testing.T) {
	b := builder.New(catalog.NewUniverse())
	a1, a2 := buildAs(t, b, "Redis", "A", "v1"), buildAs(t, b, "Redis", "A", "v2")
	p := withoutUserData(t, buildAs(t, b, "Redis", "P", ""))
	q := withoutUserData(t, buildAs(t, b, "Redis", "Q", ""))
	unrelated := []*vmi.Image{buildAs(t, b, "Mini", "U1", "u1"), buildAs(t, b, "Mini", "U2", "u2"), buildAs(t, b, "Mini", "U3", "u3")}
	backends := []struct {
		name string
		repo func(t *testing.T) *vmirepo.Repo
	}{
		{"memory", func(*testing.T) *vmirepo.Repo { return vmirepo.New(testDev) }},
		{"disk", func(t *testing.T) *vmirepo.Repo {
			r, err := vmirepo.OpenAt(t.TempDir(), testDev)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.Close() })
			return r
		}},
	}
	for _, be := range backends {
		for _, cacheBytes := range []int64{0, testCacheBytes} {
			name := be.name + "/cache-off"
			if cacheBytes > 0 {
				name = be.name + "/cache-on"
			}
			t.Run(name, func(t *testing.T) {
				s := NewSystemWithRepo(be.repo(t), testDev, Options{CacheBytes: cacheBytes})
				publishAll(t, s, a1)
				rec, err := s.repo.GetVMI("A", nil)
				if err != nil {
					t.Fatal(err)
				}
				retrieve := func(name string) func(*digestSink) error {
					return func(w *digestSink) error { _, _, err := s.RetrieveTo(w, name); return err }
				}
				assemble := func(primaries []string, from string) func(*digestSink) error {
					return func(w *digestSink) error { _, _, err := s.AssembleTo(w, "custom", primaries, from); return err }
				}
				entry := func(what, name string, img []byte) *memoEntry[recipe, retrievecache.Digest] {
					t.Helper()
					e := s.memo.get(recipeOf(t, s, name))
					if e == nil || e.val != (retrievecache.Digest{Sum: sha256.Sum256(img), CRC: crc32.Checksum(img, retrievecache.Castagnoli), N: int64(len(img))}) {
						t.Fatalf("%s: the memo's entry for %s's recipe does not describe its %d bytes", what, name, len(img))
					}
					return e
				}
				misses := func() int64 { st, _ := s.CacheStats(); return st.Misses }

				// A retrieval after a publish on A's base moves A's
				// generation, not its recipe: the same entry vouches.
				first := digested(t, "first retrieval of A", retrieve("A"))
				e := entry("first retrieval of A", "A", first)
				gen, missed := s.repo.GenerationFor(rec.BaseID, "A"), misses()
				publishAll(t, s, unrelated[0])
				if s.repo.GenerationFor(rec.BaseID, "A") == gen {
					t.Fatal("fixture: the unrelated publish did not move A's generation")
				}
				if again := digested(t, "retrieval of A after a publish on its base", retrieve("A")); !bytes.Equal(again, first) {
					t.Fatal("A's bytes changed under an unrelated publish")
				}
				if cacheBytes > 0 && misses() != missed+1 {
					t.Fatal("fixture: the second retrieval of A was not a cache miss")
				}
				if entry("second retrieval of A", "A", first) != e {
					t.Fatal("the second retrieval of A replaced its recipe's memo entry: it hashed bytes already hashed")
				}
				// An assembly of A's primaries with A's user data is A's
				// recipe under another name.
				if asm := digested(t, "assembly of A's recipe", assemble(rec.Primaries, "A")); !bytes.Equal(asm, first) || s.memo.get(recipeOf(t, s, "A")) != e {
					t.Fatal("an assembly of A's recipe did not share A's bytes and memo entry")
				}
				// Two assemblies around a publish share one entry.
				custom := []string{"redis-server"}
				asm := digested(t, "first assembly", assemble(custom, ""))
				var ae *memoEntry[recipe, retrievecache.Digest]
				for i := range s.memo.slots {
					if x := s.memo.slots[i].Load(); x != nil && x.val.Sum == sha256.Sum256(asm) {
						ae = x
					}
				}
				if ae == nil {
					t.Fatal("the assembly left no memo entry")
				}
				publishAll(t, s, unrelated[1])
				if again := digested(t, "second assembly", assemble(custom, "")); !bytes.Equal(again, asm) {
					t.Fatal("the assembly's bytes changed under an unrelated publish")
				}
				if !memoHolds(s, ae) {
					t.Fatal("the second assembly replaced the first one's memo entry")
				}

				// Two VMIs of one base, one primary set and no user data
				// are one recipe: the second is vouched by the first's entry.
				publishAll(t, s, p, q)
				pBytes := digested(t, "retrieval of P", retrieve("P"))
				pe := entry("retrieval of P", "P", pBytes)
				if recipeOf(t, s, "Q") != recipeOf(t, s, "P") {
					t.Fatal("P and Q, equal but for their names, have different recipes")
				}
				if qBytes := digested(t, "retrieval of Q", retrieve("Q")); !bytes.Equal(qBytes, pBytes) {
					t.Fatal("P and Q, equal but for their names, assembled different bytes")
				}
				if entry("retrieval of Q", "Q", pBytes) != pe {
					t.Fatal("Q's retrieval replaced the entry it shares with P")
				}

				// A republish of A with new user data is a new recipe.
				publishAll(t, s, a2)
				if recipeOf(t, s, "A") == e.key {
					t.Fatal("A republished with new user data kept its recipe")
				}
				second := digested(t, "retrieval of A republished", retrieve("A"))
				if bytes.Equal(second, first) {
					t.Fatal("fixture: A's new user data did not change its bytes")
				}
				if entry("retrieval of A republished", "A", second) == e {
					t.Fatal("A republished reused the old recipe's entry")
				}

				// A planted entry for A's recipe that describes other bytes
				// fails the retrieval, is cleared, and nothing is cached.
				publishAll(t, s, unrelated[2]) // a cache miss, so a leader assembles
				r := recipeOf(t, s, "A")
				other := bytes.Clone(second)
				other[len(other)/2] ^= 0xFF
				s.memo.put(r, retrievecache.Digest{Sum: sha256.Sum256(other), CRC: crc32.Checksum(other, retrievecache.Castagnoli), N: int64(len(other))})
				before, _ := s.CacheStats()
				var sink digestSink
				if _, _, err := s.RetrieveTo(&sink, "A"); err == nil || len(sink.sums) != 0 {
					t.Fatalf("a retrieval under a planted digest = %v with digests %x, want an error and none", err, sink.sums)
				}
				if after, _ := s.CacheStats(); after.Puts != before.Puts {
					t.Fatal("a retrieval under a planted digest was cached")
				}
				if s.memo.get(r) != nil {
					t.Fatal("the planted digest was not cleared")
				}
				if again := digested(t, "retrieval of A after the planted digest", retrieve("A")); !bytes.Equal(again, second) {
					t.Fatal("A's bytes changed after the planted digest")
				}
				entry("retrieval of A after the planted digest", "A", second)
			})
		}
	}
}

// memoHolds reports whether e is still stored in s's digest memo.
func memoHolds(s *System, e *memoEntry[recipe, retrievecache.Digest]) bool {
	return s.memo.slot(e.key).Load() == e
}
