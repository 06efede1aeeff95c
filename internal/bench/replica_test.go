package bench

import (
	"context"
	"errors"
	"testing"
	"time"

	"expelliarmus/internal/blobstore"
	"expelliarmus/internal/catalog"
	"expelliarmus/internal/client"
	"expelliarmus/internal/core"
	"expelliarmus/internal/replica"
	"expelliarmus/internal/vmirepo"
)

// TestReplicaExperiment is the replication gate: a disk-backed writer
// (the WAL is what gets shipped) serves the replication endpoints over a
// loopback listener while an in-process follower tails it. Per round the
// writer publishes the next Table II catalog image and syncs — compacting
// instead on alternate rounds, so the follower must cross epoch switches
// — then the follower catches up. Catalog images (not bulk images) on
// purpose: their package sets differ, so each round decomposes to fresh
// blobs and the read-through cache has real traffic to carry. Gates:
//
//  1. after every catch-up the follower's metadata snapshot is
//     byte-identical to the writer's;
//  2. every image published so far streams from the follower identical
//     (SHA-256 and length) to the writer's own retrieval, missing blobs
//     pulled through the read-through cache on demand — at least one
//     fetch per distinct image;
//  3. the final epoch exceeds 1 — the follower really crossed a
//     compaction-driven epoch switch;
//  4. a warm second pass over every image causes zero further
//     read-through fetches: steady-state replica reads never touch the
//     writer;
//  5. the follower refuses mutation with ErrReadOnly;
//  6. bootstrapping a brand-new follower streams the snapshot: it may
//     allocate at most 2x the snapshot it loads (one exact-sized buffer
//     inside the follower plus transport incidentals) and 8 MiB of slack
//     for the HTTP client and catch-up machinery, where a materializing
//     restart held a second whole copy in the client.
//
// Follower read latency and freshness are expelload's replicated_mix.
func TestReplicaExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("replica experiment skipped in -short mode")
	}
	const rounds = 4
	r := newTestRunner(t)
	ctx := context.Background()
	wsys := openDiskSystem(t, r, t.TempDir(), vmirepo.OpenOptions{WALCompactBytes: r.walCompactBytes}, core.Options{CacheBytes: -1})
	wrepo := wsys.Repo()
	url := "http://" + serveLoopback(t, wsys)
	follow := func() *replica.Replica {
		rep := replica.New(url, blobstore.New(), r.Dev,
			replica.Options{Client: client.Options{Timeout: 10 * time.Minute, Retries: 1}})
		t.Cleanup(rep.Close)
		return rep
	}
	rep := follow()
	fsys := core.NewSystemWithRepo(rep.Repo(), r.Dev, core.Options{CacheBytes: -1})

	type ref struct {
		name string
		n    int64
		sum  string
	}
	var refs []ref
	verifyAll := func(when string) {
		t.Helper()
		for _, want := range refs {
			if n, sum := streamSum(t, fsys, want.name); n != want.n || sum != want.sum {
				t.Fatalf("%s: follower stream of %s differs from writer (%d vs %d bytes)", when, want.name, n, want.n)
			}
		}
	}
	for i, tpl := range catalog.Paper19()[:rounds] {
		publishCatalog(t, r, []catalog.Template{tpl}, wsys)
		var err error
		if i%2 == 1 {
			_, err = wsys.Compact()
		} else {
			_, err = wsys.Sync()
		}
		if err != nil {
			t.Fatalf("round %d: writer sync/compact: %v", i, err)
		}
		n, sum := streamSum(t, wsys, tpl.Name)
		refs = append(refs, ref{tpl.Name, n, sum})

		if err := rep.CatchUp(ctx); err != nil {
			t.Fatalf("round %d: catch-up: %v", i, err)
		}
		if string(wrepo.MetaSnapshot()) != string(rep.Repo().MetaSnapshot()) {
			t.Fatalf("round %d: follower metadata differs from writer after catch-up", i)
		}
		verifyAll(tpl.Name)
	}
	if epoch, _ := rep.Repo().Follower().Position(); epoch <= 1 {
		t.Fatalf("finished on epoch %d; the follower never crossed a compaction", epoch)
	}
	fetched, _ := rep.Fetches()
	if fetched < rounds {
		t.Fatalf("only %d blobs fetched across %d distinct images — read-through never exercised", fetched, rounds)
	}
	verifyAll("warm pass")
	if after, _ := rep.Fetches(); after != fetched {
		t.Fatalf("warm pass fetched %d blobs from the writer; the cache should have been warm", after-fetched)
	}
	if _, err := fsys.Sync(); !errors.Is(err, vmirepo.ErrReadOnly) {
		t.Fatalf("follower Sync answered %v, want %v", err, vmirepo.ErrReadOnly)
	}

	snapshot := int64(len(wrepo.MetaSnapshot()))
	rep2 := follow()
	alloc, err := measureAlloc(func() error { return rep2.CatchUp(ctx) })
	if err != nil {
		t.Fatalf("fresh bootstrap: %v", err)
	}
	if bound := 2*snapshot + 8<<20; alloc > bound {
		t.Fatalf("fresh follower bootstrap allocated %d bytes for a %d-byte snapshot, bound %d", alloc, snapshot, bound)
	}
	if string(wrepo.MetaSnapshot()) != string(rep2.Repo().MetaSnapshot()) {
		t.Fatal("freshly bootstrapped follower metadata differs from writer")
	}
}
