package blobstore

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestPutGetRoundTrip(t *testing.T) {
	s := New()
	data := []byte("hello, dedup world")
	id, fresh := s.Put(data)
	if !fresh {
		t.Fatal("first Put reported duplicate")
	}
	got, ok := s.Get(id)
	if !ok || !bytes.Equal(got, data) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if n, ok := s.Size(id); !ok || n != int64(len(data)) {
		t.Fatalf("Size = %d, %v", n, ok)
	}
}

func TestPutDeduplicates(t *testing.T) {
	s := New()
	id1, _ := s.Put([]byte("same"))
	id2, fresh := s.Put([]byte("same"))
	if id1 != id2 {
		t.Fatal("same content produced different IDs")
	}
	if fresh {
		t.Fatal("second Put reported fresh")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	if s.TotalBytes() != 4 {
		t.Fatalf("TotalBytes = %d, want 4", s.TotalBytes())
	}
	if s.Refs(id1) != 2 {
		t.Fatalf("Refs = %d, want 2", s.Refs(id1))
	}
}

func TestPutCopiesInput(t *testing.T) {
	s := New()
	data := []byte("mutable")
	id, _ := s.Put(data)
	data[0] = 'X'
	got, _ := s.Get(id)
	if got[0] != 'm' {
		t.Fatal("store aliases caller's slice")
	}
}

func TestReleaseReclaims(t *testing.T) {
	s := New()
	id, _ := s.Put([]byte("abc"))
	s.Put([]byte("abc")) // refs=2
	if err := s.Release(id); err != nil {
		t.Fatal(err)
	}
	if s.Refs(id) != 1 {
		t.Fatal("blob dropped while referenced")
	}
	if err := s.Release(id); err != nil {
		t.Fatal(err)
	}
	if s.Refs(id) != 0 || s.TotalBytes() != 0 || s.Len() != 0 {
		t.Fatal("blob not reclaimed at refcount zero")
	}
	if err := s.Release(id); err == nil {
		t.Fatal("Release of absent blob succeeded")
	}
}

func TestGetMissing(t *testing.T) {
	s := New()
	var id ID
	if _, ok := s.Get(id); ok {
		t.Fatal("Get of absent blob succeeded")
	}
	if _, ok := s.Size(id); ok {
		t.Fatal("Size of absent blob succeeded")
	}
	if s.Refs(id) != 0 {
		t.Fatal("Refs of absent blob non-zero")
	}
}

func TestIDsSortedAndComplete(t *testing.T) {
	s := New()
	want := map[ID]bool{}
	for i := 0; i < 20; i++ {
		id, _ := s.Put([]byte(fmt.Sprintf("blob-%d", i)))
		want[id] = true
	}
	ids := s.IDs()
	if len(ids) != 20 {
		t.Fatalf("IDs returned %d, want 20", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if string(ids[i-1][:]) >= string(ids[i][:]) {
			t.Fatal("IDs not strictly sorted")
		}
	}
	for _, id := range ids {
		if !want[id] {
			t.Fatal("IDs returned unknown id")
		}
	}
}

func TestIDStringParseRoundTrip(t *testing.T) {
	id := Sum([]byte("round trip"))
	parsed, err := ParseID(id.String())
	if err != nil {
		t.Fatal(err)
	}
	if parsed != id {
		t.Fatal("ParseID(String()) != id")
	}
	if _, err := ParseID("zz"); err == nil {
		t.Fatal("ParseID accepted invalid hex")
	}
	if _, err := ParseID("abcd"); err == nil {
		t.Fatal("ParseID accepted short digest")
	}
}

// TestQuickRefcountNeverDropsLive is the refcount property: a blob with
// outstanding references survives any interleaving of put/release.
func TestQuickRefcountNeverDropsLive(t *testing.T) {
	err := quick.Check(func(content []byte, extraPuts uint8) bool {
		s := New()
		id, _ := s.Put(content)
		n := int(extraPuts%8) + 1 // refs now n+1 via n extra puts
		for i := 0; i < n; i++ {
			s.Put(content)
		}
		for i := 0; i < n; i++ {
			if err := s.Release(id); err != nil {
				return false
			}
			if s.Refs(id) == 0 {
				return false // still one ref outstanding
			}
		}
		if err := s.Release(id); err != nil {
			return false
		}
		return s.Refs(id) == 0 && s.TotalBytes() == 0
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestQuickTotalBytesMatchesUnique(t *testing.T) {
	err := quick.Check(func(blobs [][]byte) bool {
		s := New()
		unique := map[string]bool{}
		var want int64
		for _, b := range blobs {
			s.Put(b)
			if !unique[string(b)] {
				unique[string(b)] = true
				want += int64(len(b))
			}
		}
		return s.TotalBytes() == want && s.Len() == len(unique)
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentPuts(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Put([]byte(fmt.Sprintf("blob-%d", i%50)))
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 50 {
		t.Fatalf("Len = %d, want 50", s.Len())
	}
	id := Sum([]byte("blob-0"))
	if s.Refs(id) != 8*200/50 {
		t.Fatalf("Refs = %d, want 32", s.Refs(id))
	}
}
