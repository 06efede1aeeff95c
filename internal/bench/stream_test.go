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

// streamMarginalMax is the growth gate: across the 100x of bulk, each
// additional image byte may cost at most this many allocated bytes per
// retrieval. The residual growth is the per-cluster lazy directory (one
// offset-map entry and one index per 4 KiB cluster, ~3 % of image size); a
// path that materializes reads 1 or more. The gate is a marginal cost and
// not a ratio to the smallest scale's allocation, because a ratio rises —
// and fails — when a change shrinks the fixed part both scales share.
const streamMarginalMax = 0.05

// marginalAlloc is the allocation growth per additional image byte
// between the smallest scale (alloc0, image0) and the largest.
func marginalAlloc(alloc0, alloc2, image0, image2 int64) float64 {
	return float64(alloc2-alloc0) / float64(image2-image0)
}

// TestStreamExperiment retrieves three images whose bulk payload grows
// 100x (to a 64 MiB top scale) on the configured backend, each published
// into its own fresh system (the semantic base identity would otherwise
// dedup the bases — all three carry the same essential package set — and
// silently collapse the scales onto one blob). Each image is retrieved
// under measurement once streamed end-to-end (RetrieveTo into a hashing
// counter) and once through the materializing API. Gates: streamed
// allocation under streamCeilingBytes at every scale and growing by at
// most streamMarginalMax bytes per additional image byte from the
// smallest scale to the largest;
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
	var streamed, legacy, images []int64
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
		streamed, legacy, images = append(streamed, sAlloc), append(legacy, lAlloc), append(images, sink.n)
	}
	if m := marginalAlloc(streamed[0], streamed[2], images[0], images[2]); m > streamMarginalMax {
		t.Fatalf("streamed allocation grew %.3f bytes per image byte across 100x bulk growth (%d -> %d bytes), want <= %.2f",
			m, streamed[0], streamed[2], streamMarginalMax)
	}
	if ratio := float64(legacy[2]) / float64(streamed[2]); ratio < streamMinRatio {
		t.Fatalf("materializing/streamed allocation ratio %.1fx at %d MiB bulk, want >= %.0fx", ratio, topBulk>>20, streamMinRatio)
	}
}
