package blobstoretest

import (
	"bytes"
	"io"
	"testing"

	"expelliarmus/internal/blobstore"
)

// testReleaseCompactGet pins the contract around space reclamation:
// releasing blobs and then compacting must never disturb what survives.
// Every surviving blob retrieves byte-identical after Compact, released
// blobs stay gone, and — the subtle one — a reader opened BEFORE the
// compaction streams its blob to EOF even if compaction moved the blob
// and retired the segment under the reader. Whether any segment actually
// compacts depends on the backend's layout (small-segment disk factories
// exercise real retirement; the memory backend's Compact is a no-op); the
// semantics must hold either way.
func testReleaseCompactGet(t *testing.T, b blobstore.Backend) {
	var keep []blobstore.ID
	var keepData [][]byte
	var drop []blobstore.ID
	for i := 0; i < 32; i++ {
		data := bytes.Repeat(blobOf(i), 4)
		id, stored := put(t, b, data)
		if !stored {
			t.Fatalf("blob %d: not newly stored", i)
		}
		if i%2 == 0 {
			keep = append(keep, id)
			keepData = append(keepData, data)
		} else {
			drop = append(drop, id)
		}
	}
	// Open into the pre-compaction layout before anything is released.
	rc, size, err := b.Open(keep[0])
	if err != nil {
		t.Fatalf("open before compact: %v", err)
	}
	for _, id := range drop {
		if err := b.Release(id); err != nil {
			t.Fatalf("release: %v", err)
		}
	}
	// Deferred-release backends queue releases until a sync; flush so the
	// compactor sees the garbage.
	if _, err := b.Sync(); err != nil {
		t.Fatalf("sync before compact: %v", err)
	}
	if _, err := b.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	for i, id := range keep {
		got, ok := Get(b, id)
		if !ok {
			t.Fatalf("surviving blob %d lost after compact", i)
		}
		if !bytes.Equal(got, keepData[i]) {
			t.Fatalf("surviving blob %d not byte-identical after compact", i)
		}
	}
	for i, id := range drop {
		if b.Refs(id) != 0 {
			t.Fatalf("released blob %d resurrected by compact", i)
		}
	}
	// The old reader must stream the original bytes to a clean EOF: if the
	// backend retired the segment, the reader's pin kept it readable.
	got, err := io.ReadAll(rc)
	if err != nil {
		t.Fatalf("read through pre-compaction reader: %v", err)
	}
	if int64(len(got)) != size || !bytes.Equal(got, keepData[0]) {
		t.Fatalf("pre-compaction reader returned %d bytes, want %d byte-identical", len(got), size)
	}
	if err := rc.Close(); err != nil {
		t.Fatalf("close pre-compaction reader: %v", err)
	}
	// With the garbage gone, a second compaction finds nothing to do.
	if _, err := b.Compact(); err != nil {
		t.Fatalf("idempotent compact: %v", err)
	}
	for i, id := range keep {
		got, ok := Get(b, id)
		if !ok || !bytes.Equal(got, keepData[i]) {
			t.Fatalf("surviving blob %d damaged by second compact", i)
		}
	}
}
