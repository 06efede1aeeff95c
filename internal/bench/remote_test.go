package bench

import (
	"context"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"expelliarmus/internal/client"
	"expelliarmus/internal/core"
	"expelliarmus/internal/wire"
)

// remoteCeilingBytes is the per-client flat-memory gate of the remote
// scenario: one remote retrieval may cost the process at most the
// streamed assembly working set (streamCeilingBytes) plus HTTP chunking
// and the client's verifying copy, no matter how large the image is.
const remoteCeilingBytes = streamCeilingBytes + 8<<20

// TestRemoteExperiment is the network half of the streaming story. Per
// scale (bulk growing 100x to a 16 MiB top), a fresh system on the
// configured backend is served by cmd/expelserverd's handler on a
// loopback listener; the bulk image is published THROUGH the wire
// (exercising the streaming upload and PutBaseReader path), then 8
// concurrent remote retrievals stream it back simultaneously. Gates:
// every remote stream matches an in-process RetrieveTo in length and
// SHA-256; total allocation (server and client side, both in this
// process) stays under clients x remoteCeilingBytes at every scale, and
// from the smallest scale to 100x bulk grows by at most streamMarginalMax
// bytes per client per additional image byte — more means the serving
// path materializes somewhere between assembly and socket.
// Fresh system per scale and cache off for the same reasons as
// TestStreamExperiment.
func TestRemoteExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("remote experiment skipped in -short mode")
	}
	r := newTestRunner(t)
	const topBulk, clients = 16 << 20, 8
	var total, images []int64
	for _, bulk := range []int64{topBulk / 100, topBulk / 10, topBulk} {
		alloc, image := remoteScale(t, r, bulk, clients)
		if ceiling := int64(clients * remoteCeilingBytes); alloc > ceiling {
			t.Fatalf("%d MiB bulk: %d concurrent retrievals allocated %d bytes, ceiling %d", bulk>>20, clients, alloc, ceiling)
		}
		total, images = append(total, alloc), append(images, image)
	}
	if m := marginalAlloc(total[0], total[2], images[0], images[2]) / clients; m > streamMarginalMax {
		t.Fatalf("remote allocation grew %.3f bytes per client per image byte across 100x bulk growth (%d -> %d bytes), want <= %.2f",
			m, total[0], total[2], streamMarginalMax)
	}
}

// remoteScale runs one scale of TestRemoteExperiment and returns the
// bytes the concurrent, byte-verified remote retrievals allocated and the
// image's size.
func remoteScale(t *testing.T, r *Runner, bulk int64, clients int) (int64, int64) {
	ctx := context.Background()
	sys, err := r.NewCoreSystem(core.Options{CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	cl := client.New(serveLoopback(t, sys), client.Options{Timeout: 10 * time.Minute, Retries: 1})
	defer cl.Close()

	name := fmt.Sprintf("remote-bulk-%dM", bulk>>20)
	img, err := buildBulkImage(name, bulk)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Publish(ctx, func(w io.Writer) error { return wire.WriteImage(w, img) }); err != nil {
		t.Fatalf("remote publish %s: %v", name, err)
	}
	refLen, refSum := streamSum(t, sys, name)
	// Warm-up: one remote retrieval populates connection pools, chunk
	// pools and every code path, so the measured burst sees steady state.
	if _, _, err := cl.Retrieve(ctx, name, io.Discard); err != nil {
		t.Fatalf("remote warmup %s: %v", name, err)
	}

	alloc, err := measureAlloc(func() error {
		var wg sync.WaitGroup
		errs := make([]error, clients)
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sink := newShaCountWriter()
				n, _, err := cl.Retrieve(ctx, name, sink)
				if err == nil && (n != refLen || sink.sum() != refSum) {
					err = fmt.Errorf("client %d: remote stream differs from in-process retrieval (%d vs %d bytes)", i, n, refLen)
				}
				errs[i] = err
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("remote retrieve %s: %v", name, err)
	}
	t.Logf("%s: image %d bytes, %d clients allocated %d bytes", name, refLen, clients, alloc)
	return alloc, refLen
}
