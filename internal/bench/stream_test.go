package bench

import (
	"crypto/sha256"
	"fmt"
	"io"
	"testing"

	"expelliarmus/internal/core"
)

// streamCeilingBytes is the flat-memory gate: the streamed retrieval path
// may allocate at most this much per retrieval, no matter how large the
// image is. The budget covers the assembly's real working set — guest
// metadata, touched clusters, the lazy cluster directory — plus pooled
// streaming chunks; it does not scale with image bulk, which is the
// whole point.
const streamCeilingBytes = 32 << 20

// streamMinRatio is the control: at the largest scale the materializing
// path (Retrieve + Disk.Serialize into one []byte) must allocate at
// least this many times more than the streamed path, or the streaming
// plumbing has quietly started materializing somewhere.
const streamMinRatio = 5.0

// TestStreamExperiment retrieves three images whose bulk payload grows
// 100x (to a 64 MiB top scale) on the configured backend, each published
// into its own fresh system (the semantic base identity would otherwise
// dedup the bases — all three carry the same essential package set — and
// silently collapse the scales onto one blob). Each image is retrieved
// under measurement once streamed end-to-end (RetrieveTo into a hashing
// counter) and once through the materializing API. Gates: streamed
// allocation under streamCeilingBytes at every scale and within 4x of the
// smallest scale's at the largest (the residual growth across 100x of
// bulk is the per-cluster lazy directory, ~0.1% of image size);
// materializing/streamed >= streamMinRatio at the largest; both paths
// byte-identical. The retrieval cache is pinned off — a warm cache would
// replace the very traffic under test. Throughput of this path is
// expelload's bulk_stream workload (alloc_mb_per_op is its memory twin).
func TestStreamExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("stream experiment skipped in -short mode")
	}
	r := newTestRunner(t)
	const topBulk = 64 << 20
	var streamed, legacy []int64
	for _, bulk := range []int64{topBulk / 100, topBulk / 10, topBulk} {
		sys, err := r.NewCoreSystem(core.Options{CacheBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("stream-bulk-%dM", bulk>>20)
		img, err := buildBulkImage(name, bulk)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Publish(img); err != nil {
			t.Fatalf("publish %s: %v", name, err)
		}
		// Warm-up retrieval: populates chunk pools and touches every code
		// path once, so the measured runs see steady-state allocation.
		if _, _, err := sys.RetrieveTo(io.Discard, name); err != nil {
			t.Fatalf("warmup %s: %v", name, err)
		}

		sink := newShaCountWriter()
		sAlloc, err := measureAlloc(func() error {
			_, _, err := sys.RetrieveTo(sink, name)
			return err
		})
		if err != nil {
			t.Fatalf("streamed retrieve %s: %v", name, err)
		}
		var flat []byte
		lAlloc, err := measureAlloc(func() error {
			img, _, err := sys.Retrieve(name)
			if err != nil {
				return err
			}
			flat = img.Disk.Serialize()
			return nil
		})
		if err != nil {
			t.Fatalf("materializing retrieve %s: %v", name, err)
		}
		if int64(len(flat)) != sink.n || fmt.Sprintf("%x", sha256.Sum256(flat)) != sink.sum() {
			t.Fatalf("%s: streamed image (%d bytes) differs from the materialized one (%d bytes)", name, sink.n, len(flat))
		}
		if sAlloc > streamCeilingBytes {
			t.Fatalf("%s: streamed retrieval allocated %d bytes, ceiling %d", name, sAlloc, int64(streamCeilingBytes))
		}
		t.Logf("%s: image %d bytes, streamed alloc %d, materializing alloc %d", name, sink.n, sAlloc, lAlloc)
		streamed, legacy = append(streamed, sAlloc), append(legacy, lAlloc)
	}
	if streamed[2] > 4*streamed[0] {
		t.Fatalf("streamed allocation grew %.1fx across 100x bulk growth (%d -> %d bytes)",
			float64(streamed[2])/float64(streamed[0]), streamed[0], streamed[2])
	}
	if ratio := float64(legacy[2]) / float64(streamed[2]); ratio < streamMinRatio {
		t.Fatalf("materializing/streamed allocation ratio %.1fx at %d MiB bulk, want >= %.0fx", ratio, topBulk>>20, streamMinRatio)
	}
}
