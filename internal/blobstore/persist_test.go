package blobstore

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
)

// mustSnapshot unwraps Snapshot of an in-memory store, whose bytes cannot
// be damaged after the fact, so the error is always nil here.
func mustSnapshot(t *testing.T, s *Store) []byte {
	t.Helper()
	img, err := Snapshot(s)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	return img
}

func TestSnapshotLoadRoundTrip(t *testing.T) {
	s := New()
	id1, _ := s.Put([]byte("first blob"))
	s.Put([]byte("first blob")) // refs = 2
	id2, _ := s.Put([]byte(""))
	id3, _ := s.Put(bytes.Repeat([]byte{0xAB}, 10000))

	got, err := Load(mustSnapshot(t, s))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 || got.TotalBytes() != s.TotalBytes() {
		t.Fatalf("restored: %d blobs, %d bytes", got.Len(), got.TotalBytes())
	}
	if got.Refs(id1) != 2 {
		t.Fatalf("refcount lost: %d", got.Refs(id1))
	}
	for _, id := range []ID{id1, id2, id3} {
		want, _ := s.Get(id)
		have, ok := got.Get(id)
		if !ok || !bytes.Equal(have, want) {
			t.Fatalf("blob %s corrupted", id)
		}
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	build := func() *Store {
		s := New()
		for i := 0; i < 50; i++ {
			s.Put([]byte(fmt.Sprintf("blob-%d", i)))
		}
		return s
	}
	if !bytes.Equal(mustSnapshot(t, build()), mustSnapshot(t, build())) {
		t.Fatal("snapshot not deterministic")
	}
}

func TestLoadRejectsCorrupt(t *testing.T) {
	if _, err := Load([]byte("nope")); err == nil {
		t.Fatal("accepted garbage")
	}
	s := New()
	s.Put([]byte("content"))
	img := mustSnapshot(t, s)
	if _, err := Load(img[:len(img)-3]); err == nil {
		t.Fatal("accepted truncated image")
	}
}

func TestQuickSnapshotRoundTrip(t *testing.T) {
	err := quick.Check(func(blobs [][]byte) bool {
		s := New()
		for _, b := range blobs {
			s.Put(b)
		}
		img, err := Snapshot(s)
		if err != nil {
			return false
		}
		got, err := Load(img)
		if err != nil {
			return false
		}
		if got.Len() != s.Len() || got.TotalBytes() != s.TotalBytes() {
			return false
		}
		for _, id := range s.IDs() {
			want, _ := s.Get(id)
			have, ok := got.Get(id)
			if !ok || !bytes.Equal(have, want) || got.Refs(id) != s.Refs(id) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Fatal(err)
	}
}
