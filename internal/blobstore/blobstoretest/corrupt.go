package blobstoretest

import (
	"errors"
	"testing"

	"expelliarmus/internal/blobstore"
)

// RunOpenCorrupt pins the corruption half of the Open contract: once a
// stored blob's on-media record has been damaged, Open must fail with an
// error wrapping blobstore.ErrCorrupt — and must NOT report the blob as
// absent, because callers route the two cases very differently (absence
// is a retryable 404, corruption is an integrity incident that freezes
// the store). The caller supplies the damage: corrupt receives the blob's
// ID and original bytes and must break the stored record in place, with
// the backend still open. Backends with no externally reachable media
// (the in-memory store) have nothing to corrupt and skip this case.
func RunOpenCorrupt(t *testing.T, b blobstore.Backend, corrupt func(t *testing.T, id blobstore.ID, data []byte)) {
	data := patternBlob(96 * 1024)
	id, stored := put(t, b, data)
	if !stored {
		t.Fatalf("put reported duplicate in a fresh store")
	}
	corrupt(t, id, data)
	rc, _, err := b.Open(id)
	if err == nil {
		rc.Close()
		t.Fatalf("Open returned a reader over a corrupt record")
	}
	if !errors.Is(err, blobstore.ErrCorrupt) {
		t.Fatalf("Open(corrupt) = %v, want ErrCorrupt", err)
	}
	if errors.Is(err, blobstore.ErrNotFound) {
		t.Fatalf("Open(corrupt) conflates corruption with absence: %v", err)
	}
}
