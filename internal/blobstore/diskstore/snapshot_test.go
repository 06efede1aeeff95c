package diskstore_test

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"expelliarmus/internal/blobstore"
	"expelliarmus/internal/blobstore/diskstore"
)

// TestSnapshotSurfacesPostHocDamage pins the error-returning Snapshot
// contract: when a live blob's bytes rot on disk after they were written
// (flipped in place underneath the open store), Snapshot must return an
// error — not panic, and never serialise the damaged bytes as blob
// content (Load would re-derive a different ID and strand the repository
// metadata saved alongside).
func TestSnapshotSurfacesPostHocDamage(t *testing.T) {
	dir := t.TempDir()
	s, err := diskstore.Open(dir, diskstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	marker := []byte("distinctive-payload-to-damage-in-place-0123456789")
	put(s, marker)
	put(s, []byte("healthy sibling blob"))
	if _, err := s.SyncData(); err != nil {
		t.Fatal(err)
	}

	// Healthy store: Snapshot succeeds.
	if _, err := blobstore.Snapshot(s); err != nil {
		t.Fatalf("Snapshot on healthy store: %v", err)
	}

	// Flip one payload byte of the marker blob in place, underneath the
	// open store.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, de := range entries {
		if strings.HasPrefix(de.Name(), "seg-") {
			segs = append(segs, filepath.Join(dir, de.Name()))
		}
	}
	sort.Strings(segs)
	damaged := false
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		off := bytes.Index(data, marker)
		if off < 0 {
			continue
		}
		f, err := os.OpenFile(seg, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte{data[off+10] ^ 0xFF}, int64(off+10)); err != nil {
			t.Fatal(err)
		}
		f.Close()
		damaged = true
		break
	}
	if !damaged {
		t.Fatal("marker blob not found in any segment file")
	}

	img, err := blobstore.Snapshot(s)
	if err == nil {
		t.Fatalf("Snapshot serialised a damaged blob into %d bytes without error", len(img))
	}
	if !strings.Contains(err.Error(), "snapshot read") {
		t.Fatalf("unexpected snapshot error: %v", err)
	}
}
