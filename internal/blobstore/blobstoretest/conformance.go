// Package blobstoretest is the shared conformance suite every
// blobstore.Backend implementation must pass. The in-memory store and the
// on-disk store both run it (see conformance tests in their packages), so
// the two backends cannot drift apart on put/open/ref-count/GC semantics,
// snapshot encoding, or behaviour under concurrent access. A new backend
// earns its place by calling Run with a factory and passing under -race.
// The suite reaches a backend only through the Backend interface; put and
// Get below are its whole-slice conveniences over PutReader and Open.
package blobstoretest

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"

	"expelliarmus/internal/blobstore"
)

// Factory returns a fresh, empty backend for one subtest. Implementations
// backed by files should root themselves in t.TempDir() so every subtest
// is isolated.
type Factory func(t *testing.T) blobstore.Backend

// Run exercises the full Backend contract against backends produced by
// newBackend. Each property runs as its own subtest on its own instance.
func Run(t *testing.T, newBackend Factory) {
	t.Run("PutGet", func(t *testing.T) { testPutGet(t, newBackend(t)) })
	t.Run("DedupSecondPut", func(t *testing.T) { testDedup(t, newBackend(t)) })
	t.Run("EmptyBlob", func(t *testing.T) { testEmptyBlob(t, newBackend(t)) })
	t.Run("RefCountGC", func(t *testing.T) { testRefCountGC(t, newBackend(t)) })
	t.Run("MissingBlobErrors", func(t *testing.T) { testMissing(t, newBackend(t)) })
	t.Run("IDsSorted", func(t *testing.T) { testIDsSorted(t, newBackend(t)) })
	t.Run("SnapshotEquivalence", func(t *testing.T) { testSnapshotEquivalence(t, newBackend(t)) })
	t.Run("SnapshotLoadRoundTrip", func(t *testing.T) { testSnapshotLoad(t, newBackend(t)) })
	t.Run("ConcurrentDistinct", func(t *testing.T) { testConcurrentDistinct(t, newBackend(t)) })
	t.Run("ConcurrentSameBlob", func(t *testing.T) { testConcurrentSame(t, newBackend(t)) })
	t.Run("ConcurrentMixed", func(t *testing.T) { testConcurrentMixed(t, newBackend(t)) })
	t.Run("ReleaseCompactGet", func(t *testing.T) { testReleaseCompactGet(t, newBackend(t)) })
	runStreaming(t, newBackend)
}

// put stores data through PutReader and returns the blob ID and whether
// the content was newly stored. A failed put fails the test (with Errorf,
// so put is safe on a test's helper goroutines).
func put(t *testing.T, b blobstore.Backend, data []byte) (blobstore.ID, bool) {
	t.Helper()
	id, n, stored, err := b.PutReader(bytes.NewReader(data))
	if err != nil || n != int64(len(data)) {
		t.Errorf("PutReader(%d bytes) = %d bytes, %v", len(data), n, err)
	}
	return id, stored
}

// Get reads the blob's whole contents through Open. ok is false when the
// blob cannot be opened or read to the end, or when the bytes read no
// longer hash to id.
func Get(b blobstore.Backend, id blobstore.ID) ([]byte, bool) {
	rc, _, err := b.Open(id)
	if err != nil {
		return nil, false
	}
	defer rc.Close()
	data, err := io.ReadAll(rc)
	return data, err == nil && blobstore.Sum(data) == id
}

func blobOf(i int) []byte {
	return []byte(fmt.Sprintf("blob-%04d-%s", i, string(make([]byte, i%7))))
}

func testPutGet(t *testing.T, b blobstore.Backend) {
	data := []byte("the quick brown fox")
	id, stored := put(t, b, data)
	if !stored {
		t.Fatalf("first Put reported not stored")
	}
	if id != blobstore.Sum(data) {
		t.Fatalf("Put returned wrong ID")
	}
	got, ok := Get(b, id)
	if !ok || !bytes.Equal(got, data) {
		t.Fatalf("Get = %q, %v; want original data", got, ok)
	}
	if n, ok := b.Size(id); !ok || n != int64(len(data)) {
		t.Fatalf("Size = %d, %v; want %d, true", n, ok, len(data))
	}
	if len(b.IDs()) != 1 {
		t.Fatalf("IDs lists %d blobs, want 1", len(b.IDs()))
	}
	if b.TotalBytes() != int64(len(data)) {
		t.Fatalf("TotalBytes = %d, want %d", b.TotalBytes(), len(data))
	}
}

func testDedup(t *testing.T, b blobstore.Backend) {
	data := []byte("same bytes both times")
	id1, stored1 := put(t, b, data)
	id2, stored2 := put(t, b, data)
	if !stored1 || stored2 {
		t.Fatalf("stored flags = %v, %v; want true, false", stored1, stored2)
	}
	if id1 != id2 {
		t.Fatalf("same content produced different IDs")
	}
	if got := b.Refs(id1); got != 2 {
		t.Fatalf("Refs after double Put = %d, want 2", got)
	}
	if b.TotalBytes() != int64(len(data)) {
		t.Fatalf("TotalBytes counts duplicates: %d", b.TotalBytes())
	}
	if len(b.IDs()) != 1 {
		t.Fatalf("IDs lists %d blobs, want 1", len(b.IDs()))
	}
}

func testEmptyBlob(t *testing.T, b blobstore.Backend) {
	id, stored := put(t, b, nil)
	if !stored {
		t.Fatalf("empty blob not stored")
	}
	got, ok := Get(b, id)
	if !ok || len(got) != 0 {
		t.Fatalf("Get(empty) = %q, %v", got, ok)
	}
	if n, ok := b.Size(id); !ok || n != 0 {
		t.Fatalf("Size(empty) = %d, %v", n, ok)
	}
	if b.TotalBytes() != 0 {
		t.Fatalf("TotalBytes = %d for empty blob", b.TotalBytes())
	}
}

func testRefCountGC(t *testing.T, b blobstore.Backend) {
	data := []byte("reference counted")
	id, _ := put(t, b, data)
	put(t, b, data)
	if got := b.Refs(id); got != 2 {
		t.Fatalf("Refs = %d, want 2", got)
	}
	if err := b.Release(id); err != nil {
		t.Fatalf("first Release: %v", err)
	}
	if b.Refs(id) != 1 {
		t.Fatalf("blob collected while a reference remained")
	}
	if err := b.Release(id); err != nil {
		t.Fatalf("final Release: %v", err)
	}
	if got := b.Refs(id); got != 0 {
		t.Fatalf("Refs after GC = %d, want 0", got)
	}
	if _, ok := b.Size(id); ok {
		t.Fatalf("blob survived its last Release")
	}
	if b.TotalBytes() != 0 || len(b.IDs()) != 0 {
		t.Fatalf("store not empty after GC: %d bytes, %d blobs", b.TotalBytes(), len(b.IDs()))
	}
	// Re-putting previously collected content must behave like a fresh put.
	if _, stored := put(t, b, data); !stored {
		t.Fatalf("re-Put after GC reported not stored")
	}
	if got := b.Refs(id); got != 1 {
		t.Fatalf("Refs after re-Put = %d, want 1", got)
	}
	if got, ok := Get(b, id); !ok || !bytes.Equal(got, data) {
		t.Fatalf("Get after re-Put = %q, %v", got, ok)
	}
}

func testMissing(t *testing.T, b blobstore.Backend) {
	id := blobstore.Sum([]byte("never stored"))
	// Open must report absence specifically — never nil, and never the
	// corruption error, which callers treat as an integrity incident.
	if rc, _, err := b.Open(id); err == nil {
		rc.Close()
		t.Fatalf("Open(missing) did not error")
	} else if !errors.Is(err, blobstore.ErrNotFound) {
		t.Fatalf("Open(missing) = %v, want ErrNotFound", err)
	} else if errors.Is(err, blobstore.ErrCorrupt) {
		t.Fatalf("Open(missing) reports corruption: %v", err)
	}
	if _, ok := b.Size(id); ok {
		t.Fatalf("Size(missing) = ok")
	}
	if b.Refs(id) != 0 {
		t.Fatalf("Refs(missing) != 0")
	}
	if err := b.Release(id); err == nil {
		t.Fatalf("Release(missing) did not error")
	}
}

func testIDsSorted(t *testing.T, b blobstore.Backend) {
	const n = 50
	want := map[blobstore.ID]bool{}
	for i := 0; i < n; i++ {
		id, _ := put(t, b, blobOf(i))
		want[id] = true
	}
	ids := b.IDs()
	if len(ids) != n {
		t.Fatalf("IDs returned %d, want %d", len(ids), n)
	}
	for i := 1; i < len(ids); i++ {
		if string(ids[i-1][:]) >= string(ids[i][:]) {
			t.Fatalf("IDs not strictly sorted at %d", i)
		}
	}
	for _, id := range ids {
		if !want[id] {
			t.Fatalf("IDs returned unknown blob %s", id)
		}
	}
}

// testSnapshotEquivalence pins the property repository snapshots depend
// on: blobstore.Snapshot of a backend must be byte-identical to that of
// the in-memory store holding the same blobs and reference counts.
func testSnapshotEquivalence(t *testing.T, b blobstore.Backend) {
	ref := blobstore.New()
	for i := 0; i < 40; i++ {
		data := blobOf(i)
		put(t, b, data)
		put(t, ref, data)
		if i%3 == 0 { // vary reference counts
			put(t, b, data)
			put(t, ref, data)
		}
		if i%5 == 0 { // and collect a few entirely
			id := blobstore.Sum(data)
			for b.Refs(id) > 0 {
				if err := b.Release(id); err != nil {
					t.Fatalf("Release: %v", err)
				}
			}
			for ref.Refs(id) > 0 {
				if err := ref.Release(id); err != nil {
					t.Fatalf("ref Release: %v", err)
				}
			}
		}
	}
	got, err := blobstore.Snapshot(b)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	want, err := blobstore.Snapshot(ref)
	if err != nil {
		t.Fatalf("reference Snapshot: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Snapshot differs from in-memory reference: %d vs %d bytes", len(got), len(want))
	}
}

func testSnapshotLoad(t *testing.T, b blobstore.Backend) {
	type blob struct {
		data []byte
		refs int
	}
	blobs := map[blobstore.ID]blob{}
	for i := 0; i < 20; i++ {
		data := blobOf(i)
		id, _ := put(t, b, data)
		refs := 1
		for j := 0; j < i%4; j++ {
			put(t, b, data)
			refs++
		}
		blobs[id] = blob{data: data, refs: refs}
	}
	img, err := blobstore.Snapshot(b)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	restored, err := blobstore.Load(img)
	if err != nil {
		t.Fatalf("Load(Snapshot): %v", err)
	}
	if restored.Len() != len(blobs) {
		t.Fatalf("restored %d blobs, want %d", restored.Len(), len(blobs))
	}
	for id, want := range blobs {
		got, ok := restored.Get(id)
		if !ok || !bytes.Equal(got, want.data) {
			t.Fatalf("restored Get(%s) = %v", id, ok)
		}
		if restored.Refs(id) != want.refs {
			t.Fatalf("restored Refs(%s) = %d, want %d", id, restored.Refs(id), want.refs)
		}
	}
	if restored.TotalBytes() != b.TotalBytes() {
		t.Fatalf("restored TotalBytes = %d, want %d", restored.TotalBytes(), b.TotalBytes())
	}
}

// testConcurrentDistinct has goroutines publish disjoint blobs while
// readers sweep; run under -race it checks the locking story.
func testConcurrentDistinct(t *testing.T, b blobstore.Backend) {
	const workers, perWorker = 8, 30
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				data := []byte(fmt.Sprintf("w%d-i%d", w, i))
				id, stored := put(t, b, data)
				if !stored {
					t.Errorf("disjoint blob reported duplicate")
					return
				}
				if got, ok := Get(b, id); !ok || !bytes.Equal(got, data) {
					t.Errorf("reading a just-put blob failed")
					return
				}
			}
		}(w)
	}
	// Concurrent readers exercising aggregate queries mid-traffic.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			b.TotalBytes()
			b.IDs()
		}
	}()
	wg.Wait()
	if n := len(b.IDs()); n != workers*perWorker {
		t.Fatalf("%d blobs, want %d", n, workers*perWorker)
	}
}

// testConcurrentSame races many goroutines putting identical content:
// exactly one must win the store, and the reference count must equal the
// number of puts.
func testConcurrentSame(t *testing.T, b blobstore.Backend) {
	const workers = 16
	data := []byte("contended content")
	var wg sync.WaitGroup
	var storedCount sync.Map
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, stored := put(t, b, data)
			storedCount.Store(w, stored)
		}(w)
	}
	wg.Wait()
	wins := 0
	storedCount.Range(func(_, v any) bool {
		if v.(bool) {
			wins++
		}
		return true
	})
	if wins != 1 {
		t.Fatalf("%d goroutines observed a fresh store, want exactly 1", wins)
	}
	id := blobstore.Sum(data)
	if got := b.Refs(id); got != workers {
		t.Fatalf("Refs = %d, want %d", got, workers)
	}
	if b.TotalBytes() != int64(len(data)) {
		t.Fatalf("TotalBytes = %d, want %d", b.TotalBytes(), len(data))
	}
}

// testConcurrentMixed interleaves puts, ref churn and GC on a shared set
// of blobs, then verifies the final counts are exact.
func testConcurrentMixed(t *testing.T, b blobstore.Backend) {
	const workers = 8
	const blobsN = 10
	ids := make([]blobstore.ID, blobsN)
	for i := range ids {
		ids[i], _ = put(t, b, blobOf(i))
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker adds then removes one reference per blob; the net
			// effect must be zero.
			for i := range ids {
				put(t, b, blobOf(i))
			}
			for _, id := range ids {
				if err := b.Release(id); err != nil {
					t.Errorf("Release: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i, id := range ids {
		if got := b.Refs(id); got != 1 {
			t.Fatalf("blob %d Refs = %d, want 1", i, got)
		}
	}
}
