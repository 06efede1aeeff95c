package blobstoretest

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"

	"expelliarmus/internal/blobstore"
)

// runStreaming registers the streaming and aliasing properties of the
// Backend contract; called from Run so every backend gets them.
func runStreaming(t *testing.T, newBackend Factory) {
	t.Run("NoAliasing", func(t *testing.T) { testNoAliasing(t, newBackend(t)) })
	t.Run("StreamRoundTrip", func(t *testing.T) { testStreamRoundTrip(t, newBackend(t)) })
	t.Run("StreamDedup", func(t *testing.T) { testStreamDedup(t, newBackend(t)) })
	t.Run("StreamPutError", func(t *testing.T) { testStreamPutError(t, newBackend(t)) })
	t.Run("StreamLargeSpill", func(t *testing.T) { testStreamLargeSpill(t, newBackend(t)) })
	t.Run("StreamPartialReadEarlyClose", func(t *testing.T) { testStreamEarlyClose(t, newBackend(t)) })
	t.Run("StreamReadAfterRelease", func(t *testing.T) { testStreamReadAfterRelease(t, newBackend(t)) })
	t.Run("StreamConcurrentGets", func(t *testing.T) { testStreamConcurrent(t, newBackend(t)) })
}

// oneWayReader hides every method but Read, so backends cannot shortcut
// through Seek/WriteTo/Bytes — the stream really is consumed as a stream.
type oneWayReader struct{ r io.Reader }

func (o oneWayReader) Read(p []byte) (int, error) { return o.r.Read(p) }

// patternBlob builds a deterministic, non-repeating payload of n bytes.
func patternBlob(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i*7 + i>>9 + 13)
	}
	return out
}

// testNoAliasing pins the ownership contract: the store must not retain
// the buffer a put read from, and bytes read out must be the caller's to
// scribble on freely.
func testNoAliasing(t *testing.T, b blobstore.Backend) {
	orig := []byte("immutable once stored")
	data := append([]byte(nil), orig...)
	id, _ := put(t, b, data)
	for i := range data { // caller reuses its buffer
		data[i] = 0xEE
	}
	got, ok := Get(b, id)
	if !ok || !bytes.Equal(got, orig) {
		t.Fatalf("mutating the put input corrupted the stored blob: %q", got)
	}
	for i := range got { // caller scribbles on the returned copy
		got[i] = 0xAA
	}
	again, ok := Get(b, id)
	if !ok || !bytes.Equal(again, orig) {
		t.Fatalf("mutating a read-out copy corrupted the stored blob: %q", again)
	}
}

func testStreamRoundTrip(t *testing.T, b blobstore.Backend) {
	data := patternBlob(10 * 1024)
	id, n, stored, err := b.PutReader(oneWayReader{bytes.NewReader(data)})
	if err != nil {
		t.Fatalf("PutReader: %v", err)
	}
	if !stored || n != int64(len(data)) || id != blobstore.Sum(data) {
		t.Fatalf("PutReader = (%s, %d, %v), want fresh store of %d bytes", id, n, stored, len(data))
	}
	rc, size, err := b.Open(id)
	if err != nil || size != int64(len(data)) {
		t.Fatalf("Open = %v, size %d; want nil, %d", err, size, len(data))
	}
	defer rc.Close()
	got, err := io.ReadAll(rc)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("streamed read differs from input (err=%v)", err)
	}
	// The contract requires random access on the returned reader.
	ra, ok := rc.(io.ReaderAt)
	if !ok {
		t.Fatalf("Open reader does not implement io.ReaderAt")
	}
	mid := make([]byte, 100)
	if _, err := ra.ReadAt(mid, 5000); err != nil || !bytes.Equal(mid, data[5000:5100]) {
		t.Fatalf("ReadAt mid-blob differs (err=%v)", err)
	}
}

func testStreamDedup(t *testing.T, b blobstore.Backend) {
	data := patternBlob(4096)
	id1, _, stored1, err1 := b.PutReader(oneWayReader{bytes.NewReader(data)})
	id2, n2, stored2, err2 := b.PutReader(oneWayReader{bytes.NewReader(data)})
	if err1 != nil || err2 != nil {
		t.Fatalf("PutReader errors: %v, %v", err1, err2)
	}
	if !stored1 || stored2 || id1 != id2 || n2 != int64(len(data)) {
		t.Fatalf("dedup: stored=(%v,%v) ids equal=%v", stored1, stored2, id1 == id2)
	}
	if got := b.Refs(id1); got != 2 {
		t.Fatalf("Refs after double PutReader = %d, want 2", got)
	}
}

// errAfter yields n pattern bytes, then fails: a source dying mid-upload.
type errAfter struct{ left int }

func (e *errAfter) Read(p []byte) (int, error) {
	if e.left <= 0 {
		return 0, errors.New("source torn away")
	}
	n := len(p)
	if n > e.left {
		n = e.left
	}
	for i := 0; i < n; i++ {
		p[i] = byte(i)
	}
	e.left -= n
	return n, nil
}

func testStreamPutError(t *testing.T, b blobstore.Backend) {
	before, beforeBytes := len(b.IDs()), b.TotalBytes()
	if _, _, _, err := b.PutReader(&errAfter{left: 2 << 20}); err == nil {
		t.Fatalf("PutReader with a failing source did not error")
	}
	if len(b.IDs()) != before || b.TotalBytes() != beforeBytes {
		t.Fatalf("failed PutReader changed the store: %d blobs, %d bytes", len(b.IDs()), b.TotalBytes())
	}
}

// testStreamLargeSpill pushes a blob past any in-memory spooling
// threshold (the disk backend spills puts over 1 MiB to a spool file).
func testStreamLargeSpill(t *testing.T, b blobstore.Backend) {
	data := patternBlob(3<<20 + 137)
	id, n, stored, err := b.PutReader(oneWayReader{bytes.NewReader(data)})
	if err != nil || !stored || n != int64(len(data)) {
		t.Fatalf("PutReader(3MiB) = (%d, %v, %v)", n, stored, err)
	}
	rc, size, err := b.Open(id)
	if err != nil || size != int64(len(data)) {
		t.Fatalf("Open(3MiB) = %v, %d", err, size)
	}
	defer rc.Close()
	got, err := io.ReadAll(rc)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("3MiB round trip differs (err=%v)", err)
	}
}

// testStreamEarlyClose opens and abandons many readers mid-blob; leaks of
// file handles or goroutines would fail this loop (or the -race leg) long
// before the iteration count runs out.
func testStreamEarlyClose(t *testing.T, b blobstore.Backend) {
	data := patternBlob(256 * 1024)
	id, _ := put(t, b, data)
	for i := 0; i < 500; i++ {
		rc, _, err := b.Open(id)
		if err != nil {
			t.Fatalf("Open failed on iteration %d: %v", i, err)
		}
		buf := make([]byte, 777)
		if _, err := io.ReadFull(rc, buf); err != nil {
			t.Fatalf("partial read %d: %v", i, err)
		}
		if !bytes.Equal(buf, data[:777]) {
			t.Fatalf("partial read %d returned wrong bytes", i)
		}
		if err := rc.Close(); err != nil {
			t.Fatalf("early Close %d: %v", i, err)
		}
	}
	// The store must still serve complete reads afterwards.
	if got, ok := Get(b, id); !ok || !bytes.Equal(got, data) {
		t.Fatalf("full read after early-close churn failed")
	}
}

// testStreamReadAfterRelease pins the lifetime contract: a reader opened
// before the blob's last Release keeps working (the repository hands
// lazily-backed images to callers that outlive the catalog entry).
func testStreamReadAfterRelease(t *testing.T, b blobstore.Backend) {
	data := patternBlob(64 * 1024)
	id, _ := put(t, b, data)
	rc, _, err := b.Open(id)
	if err != nil {
		t.Fatalf("Open failed: %v", err)
	}
	defer rc.Close()
	if err := b.Release(id); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if b.Refs(id) != 0 {
		t.Fatalf("blob survived its last Release")
	}
	got, err := io.ReadAll(rc)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after release differs (err=%v)", err)
	}
}

func testStreamConcurrent(t *testing.T, b blobstore.Backend) {
	data := patternBlob(512 * 1024)
	id, _ := put(t, b, data)
	const readers = 8
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rc, size, err := b.Open(id)
			if err != nil {
				t.Errorf("reader %d: Open failed: %v", w, err)
				return
			}
			defer rc.Close()
			// Interleave sequential reads with random access on the same
			// blob from sibling goroutines.
			if ra, ok := rc.(io.ReaderAt); ok && w%2 == 0 {
				off := int64(w * 1000)
				buf := make([]byte, 333)
				if _, err := ra.ReadAt(buf, off); err != nil || !bytes.Equal(buf, data[off:off+333]) {
					t.Errorf("reader %d: ReadAt differs (err=%v)", w, err)
					return
				}
			}
			got, err := io.ReadAll(rc)
			if err != nil || int64(len(got)) != size || !bytes.Equal(got, data) {
				t.Errorf("reader %d: streamed read differs (err=%v)", w, err)
			}
		}(w)
	}
	wg.Wait()
}
