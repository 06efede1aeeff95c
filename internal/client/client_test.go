package client_test

// Unit tests for the client's retry and truncation semantics against
// scripted handlers — the failure modes here (mid-body aborts, missing
// trailers, per-attempt request rebuilding) are driven precisely by
// faking the server side; the happy paths run against the real server
// in internal/server's integration tests.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"expelliarmus/internal/client"
	"expelliarmus/internal/wire"
)

// writeValidStream emits one complete trailer-verified image stream.
func writeValidStream(w http.ResponseWriter, body []byte) {
	w.Header().Set("Trailer", wire.HeaderSha256+", "+wire.HeaderBytes+", "+wire.HeaderResult)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(body)
	sum := sha256.Sum256(body)
	res, _ := json.Marshal(wire.RetrieveResult{Seconds: 0.01})
	w.Header().Set(wire.HeaderSha256, hex.EncodeToString(sum[:]))
	w.Header().Set(wire.HeaderBytes, strconv.Itoa(len(body)))
	w.Header().Set(wire.HeaderResult, string(res))
}

func newTestClient(t *testing.T, h http.HandlerFunc, retries int) *client.Client {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	cl := client.New(ts.URL, client.Options{Timeout: time.Minute, Retries: retries})
	t.Cleanup(cl.Close)
	return cl
}

// TestAbortMidBodyIsTruncatedNotEOF: a server that dies after the first
// body bytes must surface ErrTruncated — and because those bytes already
// reached the caller's sink, the request must NOT be retried no matter
// how many retries are configured.
func TestAbortMidBodyIsTruncatedNotEOF(t *testing.T) {
	var attempts atomic.Int32
	cl := newTestClient(t, func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		w.Header().Set("Trailer", wire.HeaderSha256+", "+wire.HeaderBytes+", "+wire.HeaderResult)
		w.Write(bytes.Repeat([]byte("partial-"), 8<<10))
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	}, 3)

	var sink bytes.Buffer
	_, _, err := cl.Retrieve(context.Background(), "aborted", &sink)
	if err == nil {
		t.Fatalf("mid-body abort reported success (%d bytes)", sink.Len())
	}
	if !errors.Is(err, client.ErrTruncated) {
		t.Fatalf("mid-body abort = %v, want ErrTruncated", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("request with caller-visible bytes retried: %d attempts", got)
	}
	if sink.Len() == 0 {
		t.Fatalf("expected a partial prefix in the sink")
	}
}

// TestMissingTrailersIsTruncated: a body that ends cleanly but never
// delivers its integrity trailers is an incomplete stream, not a
// verified image — and it too unwraps to ErrTruncated.
func TestMissingTrailersIsTruncated(t *testing.T) {
	var attempts atomic.Int32
	cl := newTestClient(t, func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		w.Write([]byte("looks complete but proves nothing"))
	}, 2)

	_, _, err := cl.Retrieve(context.Background(), "bare", io.Discard)
	if !errors.Is(err, client.ErrTruncated) {
		t.Fatalf("trailer-less stream = %v, want ErrTruncated", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("request with caller-visible bytes retried: %d attempts", got)
	}
}

// TestTruncationBeforeFirstByteIsRetried: an abort before any body byte
// reached the caller is as retryable as a dial failure — the second
// attempt must succeed with a verified stream.
func TestTruncationBeforeFirstByteIsRetried(t *testing.T) {
	body := bytes.Repeat([]byte("image-payload|"), 4<<10)
	var attempts atomic.Int32
	cl := newTestClient(t, func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) == 1 {
			// Headers out, zero body bytes, then die.
			w.Header().Set("Trailer", wire.HeaderSha256)
			w.WriteHeader(http.StatusOK)
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler)
		}
		writeValidStream(w, body)
	}, 1)

	var sink bytes.Buffer
	n, res, err := cl.Retrieve(context.Background(), "flaky", &sink)
	if err != nil {
		t.Fatalf("retrieve with one pre-byte abort: %v", err)
	}
	if n != int64(len(body)) || !bytes.Equal(sink.Bytes(), body) {
		t.Fatalf("retried stream differs: %d bytes, want %d", n, len(body))
	}
	if res == nil || res.Seconds <= 0 {
		t.Fatalf("result trailer lost across the retry: %+v", res)
	}
	if got := attempts.Load(); got != 2 {
		t.Fatalf("attempts = %d, want 2", got)
	}
}

// TestRetryRebuildsRequestFromScratch pins that every retry issues a
// brand-new, complete request — method, path and framing intact — rather
// than replaying any state left over from the failed attempt.
func TestRetryRebuildsRequestFromScratch(t *testing.T) {
	type seen struct{ method, path string }
	var attempts atomic.Int32
	requests := make(chan seen, 4)
	cl := newTestClient(t, func(w http.ResponseWriter, r *http.Request) {
		requests <- seen{r.Method, r.URL.Path}
		if attempts.Add(1) == 1 {
			panic(http.ErrAbortHandler) // transport-level failure, no reply
		}
		w.WriteHeader(http.StatusNoContent)
	}, 2)

	if err := cl.Remove(context.Background(), "ghost"); err != nil {
		t.Fatalf("remove with one transport failure: %v", err)
	}
	if got := attempts.Load(); got != 2 {
		t.Fatalf("attempts = %d, want 2", got)
	}
	first, second := <-requests, <-requests
	if first != second {
		t.Fatalf("retry did not rebuild the request: %+v then %+v", first, second)
	}
	if second.method != http.MethodDelete || second.path != "/v1/images/ghost" {
		t.Fatalf("unexpected retried request: %+v", second)
	}
}

// TestCompactDecodesSyncStats pins the maintenance verb: POST
// /v1/compact, reply decoded as the full wire.SyncStats including the
// reclamation fields. The body is spelled out as the flat JSON object the
// protocol has always carried, so the blob half of the stats must keep
// decoding from top-level keys.
func TestCompactDecodesSyncStats(t *testing.T) {
	const body = `{"Segments":3,"SegmentBytes":1048576,"IndexBytes":0,"MetaBytes":7,"MetaOps":1,` +
		`"Compacted":true,"MetaSnapshotBytes":9,"SegmentsCompacted":2,"BytesReclaimed":524288,"DeadBytes":64}`
	want := wire.SyncStats{MetaBytes: 7, MetaOps: 1, Compacted: true, MetaSnapshotBytes: 9}
	want.Segments, want.SegmentBytes = 3, 1<<20
	want.SegmentsCompacted, want.BytesReclaimed, want.DeadBytes = 2, 512<<10, 64
	cl := newTestClient(t, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/compact" {
			t.Errorf("compact sent %s %s", r.Method, r.URL.Path)
		}
		io.WriteString(w, body)
	}, 0)

	got, err := cl.Compact(context.Background())
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if *got != want {
		t.Fatalf("Compact stats = %+v, want %+v", *got, want)
	}
}
