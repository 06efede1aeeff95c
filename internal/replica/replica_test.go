package replica_test

// End-to-end replication tests over a real loopback listener: a
// disk-backed writer daemon, a follower built by the replica loop, and
// the wire protocol between them. These pin the tentpole's headline
// gates — byte-identical retrievals from the follower mid-catch-up,
// including across a writer compaction epoch switch — plus the
// read-only route rejection and the replay-equivalence property.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"expelliarmus/internal/blobstore"
	"expelliarmus/internal/builder"
	"expelliarmus/internal/catalog"
	"expelliarmus/internal/client"
	"expelliarmus/internal/core"
	"expelliarmus/internal/fsx"
	"expelliarmus/internal/fsx/fsxtest"
	"expelliarmus/internal/replica"
	"expelliarmus/internal/server"
	"expelliarmus/internal/simio"
	"expelliarmus/internal/vmi"
	"expelliarmus/internal/vmirepo"
	"expelliarmus/internal/wire"
)

var testDev = simio.NewDevice(simio.PaperProfile().Scaled(catalog.ByteScale, catalog.FileScale))

// startServer serves sys on a loopback listener, optionally wiring a
// replica's stats, and returns the address.
func startServer(t *testing.T, sys *core.System, rep *replica.Replica) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := server.New(sys)
	if rep != nil {
		h.SetReplica(rep)
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// openWriter opens (or reopens) a disk-backed writer system at dir.
func openWriter(t *testing.T, dir string) *core.System {
	t.Helper()
	repo, err := vmirepo.OpenAt(dir, testDev)
	if err != nil {
		t.Fatalf("OpenAt(%s): %v", dir, err)
	}
	return core.NewSystemWithRepo(repo, testDev, core.Options{})
}

func buildImage(t *testing.T, b *builder.Builder, name string) *vmi.Image {
	t.Helper()
	tpl, ok := catalog.Find(name)
	if !ok {
		t.Fatalf("template %s not found", name)
	}
	img, err := b.Build(tpl)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func publish(t *testing.T, sys *core.System, b *builder.Builder, name string) {
	t.Helper()
	if _, err := sys.Publish(buildImage(t, b, name)); err != nil {
		t.Fatalf("publish %s: %v", name, err)
	}
}

type shaCounter struct {
	h hash.Hash
	n int64
}

func newShaCounter() *shaCounter { return &shaCounter{h: sha256.New()} }

func (w *shaCounter) Write(p []byte) (int, error) {
	w.h.Write(p)
	w.n += int64(len(p))
	return len(p), nil
}

func (w *shaCounter) sum() string { return fmt.Sprintf("%x", w.h.Sum(nil)) }

// retrieveSum retrieves name from sys and returns (bytes, sha).
func retrieveSum(t *testing.T, sys *core.System, name string) (int64, string) {
	t.Helper()
	w := newShaCounter()
	if _, _, err := sys.RetrieveTo(w, name); err != nil {
		t.Fatalf("retrieve %s: %v", name, err)
	}
	return w.n, w.sum()
}

func mustCatchUp(t *testing.T, rep *replica.Replica) {
	t.Helper()
	if err := rep.CatchUp(context.Background()); err != nil {
		t.Fatalf("CatchUp: %v", err)
	}
}

// TestReplicaServesIdenticalRetrievals is the headline gate: a follower
// that caught up over the wire serves byte-identical retrievals, pulls
// blobs through on demand, keeps serving its applied state while the
// writer moves ahead (mid-catch-up), and converges again — across a
// forced compaction epoch switch — after the next catch-up.
func TestReplicaServesIdenticalRetrievals(t *testing.T) {
	dir := t.TempDir()
	wsys := openWriter(t, dir)
	t.Cleanup(func() { wsys.Close() })
	waddr := startServer(t, wsys, nil)
	b := builder.New(catalog.NewUniverse())

	publish(t, wsys, b, "Mini")
	publish(t, wsys, b, "Redis")
	if _, err := wsys.Sync(); err != nil {
		t.Fatal(err)
	}

	rep := replica.New(waddr, blobstore.New(), testDev, replica.Options{
		Client: client.Options{Timeout: time.Minute, Retries: 1},
	})
	t.Cleanup(rep.Close)
	mustCatchUp(t, rep)
	fsys := core.NewSystemWithRepo(rep.Repo(), testDev, core.Options{})
	faddr := startServer(t, fsys, rep)

	wantN, wantSum := retrieveSum(t, wsys, "Mini")
	gotN, gotSum := retrieveSum(t, fsys, "Mini")
	if gotN != wantN || gotSum != wantSum {
		t.Fatalf("follower Mini differs: %d bytes %s vs writer %d bytes %s", gotN, gotSum, wantN, wantSum)
	}

	// Mid-catch-up: the writer moves on (publish + compaction epoch
	// switch); the follower, not yet re-polled, still serves its applied
	// state byte-identically.
	publish(t, wsys, b, "PostgreSql")
	if _, err := wsys.Compact(); err != nil {
		t.Fatal(err)
	}
	gotN, gotSum = retrieveSum(t, fsys, "Redis")
	wantN, wantSum = retrieveSum(t, wsys, "Redis")
	if gotN != wantN || gotSum != wantSum {
		t.Fatalf("mid-catch-up Redis differs: %d bytes %s vs %d bytes %s", gotN, gotSum, wantN, wantSum)
	}
	if _, _, err := fsys.Retrieve("PostgreSql"); err == nil {
		t.Fatalf("follower served a VMI it has not applied yet")
	}

	// Catch up across the epoch switch and converge.
	mustCatchUp(t, rep)
	if !bytes.Equal(rep.Repo().MetaSnapshot(), wsys.Repo().MetaSnapshot()) {
		t.Fatalf("metadata snapshots differ after epoch switch")
	}
	gotN, gotSum = retrieveSum(t, fsys, "PostgreSql")
	wantN, wantSum = retrieveSum(t, wsys, "PostgreSql")
	if gotN != wantN || gotSum != wantSum {
		t.Fatalf("post-epoch-switch PostgreSql differs")
	}

	// Remote retrieval from the follower daemon verifies end to end too.
	cl := client.New(faddr, client.Options{Timeout: time.Minute})
	defer cl.Close()
	remote := newShaCounter()
	if _, _, err := cl.Retrieve(context.Background(), "PostgreSql", remote); err != nil {
		t.Fatalf("remote retrieve from follower: %v", err)
	}
	if remote.sum() != wantSum {
		t.Fatalf("follower wire retrieval differs from writer's bytes")
	}

	// Replication observability: writer reports its epoch/durable bytes,
	// follower reports applied position and upstream.
	wst, err := client.New(waddr, client.Options{}).Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if wst.Repl == nil || wst.Repl.Role != "writer" || wst.Repl.Epoch == 0 {
		t.Fatalf("writer stats lack replication section: %+v", wst.Repl)
	}
	fst, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Batches may be zero here: the last catch-up crossed an epoch
	// switch, so the follower restarted from a snapshot that already
	// covered everything and had no WAL tail left to apply.
	if fst.Repl == nil || fst.Repl.Role != "follower" || fst.Repl.Epoch != wst.Repl.Epoch || fst.Repl.WriterURL == "" {
		t.Fatalf("follower stats lack replication section: %+v", fst.Repl)
	}
	if fst.Repl.LagBytes != 0 {
		t.Fatalf("caught-up follower reports %d lag bytes", fst.Repl.LagBytes)
	}
}

// TestReplicaRejectsMutatingRoutes pins the read-only contract over the
// wire (and the client-side unwrap): publish, remove, sync and compact
// against a follower daemon come back 403/read-only and unwrap to
// vmirepo.ErrReadOnly.
func TestReplicaRejectsMutatingRoutes(t *testing.T) {
	dir := t.TempDir()
	wsys := openWriter(t, dir)
	t.Cleanup(func() { wsys.Close() })
	waddr := startServer(t, wsys, nil)
	b := builder.New(catalog.NewUniverse())
	publish(t, wsys, b, "Mini")
	if _, err := wsys.Sync(); err != nil {
		t.Fatal(err)
	}

	rep := replica.New(waddr, blobstore.New(), testDev, replica.Options{})
	t.Cleanup(rep.Close)
	mustCatchUp(t, rep)
	fsys := core.NewSystemWithRepo(rep.Repo(), testDev, core.Options{})
	faddr := startServer(t, fsys, rep)
	cl := client.New(faddr, client.Options{Timeout: time.Minute})
	defer cl.Close()
	ctx := context.Background()

	img := buildImage(t, b, "Redis")
	if _, err := cl.Publish(ctx, func(w io.Writer) error { return wire.WriteImage(w, img) }); !errors.Is(err, vmirepo.ErrReadOnly) {
		t.Fatalf("publish to follower: err = %v, want ErrReadOnly", err)
	}
	if err := cl.Remove(ctx, "Mini"); !errors.Is(err, vmirepo.ErrReadOnly) {
		t.Fatalf("remove on follower: err = %v, want ErrReadOnly", err)
	}
	if _, err := cl.Sync(ctx); !errors.Is(err, vmirepo.ErrReadOnly) {
		t.Fatalf("sync on follower: err = %v, want ErrReadOnly", err)
	}
	if _, err := cl.Compact(ctx); !errors.Is(err, vmirepo.ErrReadOnly) {
		t.Fatalf("compact on follower: err = %v, want ErrReadOnly", err)
	}
	// The refused routes left the follower serving normally.
	if _, _, err := fsys.Retrieve("Mini"); err != nil {
		t.Fatalf("follower broken after refused mutations: %v", err)
	}
}

// TestReplayEquivalenceProperty drives a random operation sequence
// (publishes — some with tenants and TTLs — removals, expiry sweeps,
// vacuums, syncs, forced compactions) on the writer while a follower
// catches up at random batch boundaries. At every catch-up point the
// follower's metadata must be byte-identical to the writer's, and at the
// end every surviving VMI must retrieve byte-identically.
func TestReplayEquivalenceProperty(t *testing.T) {
	names := []string{"Mini", "Redis", "PostgreSql", "Django", "Tomcat"}
	for _, seed := range []int64{1, 7} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			wsys := openWriter(t, dir)
			t.Cleanup(func() { wsys.Close() })
			waddr := startServer(t, wsys, nil)
			b := builder.New(catalog.NewUniverse())
			rep := replica.New(waddr, blobstore.New(), testDev, replica.Options{
				Client: client.Options{Timeout: time.Minute},
			})
			t.Cleanup(rep.Close)
			fsys := core.NewSystemWithRepo(rep.Repo(), testDev, core.Options{})

			published := map[string]bool{}
			compacted := false
			// Logical expiry clock (fixed base so runs are reproducible):
			// TTL publishes expire a few ticks out, expiry sweeps advance it.
			clock := int64(1000)
			for step := 0; step < 14; step++ {
				switch op := rng.Intn(13); {
				case op < 4: // publish an unpublished template
					var candidates []string
					for _, n := range names {
						if !published[n] {
							candidates = append(candidates, n)
						}
					}
					if len(candidates) == 0 {
						continue
					}
					n := candidates[rng.Intn(len(candidates))]
					var opts core.PublishOpts
					if rng.Intn(2) == 0 {
						opts.Tenant = []string{"alice", "bob"}[rng.Intn(2)]
					}
					if rng.Intn(2) == 0 {
						opts.ExpiresAt = clock + int64(rng.Intn(6)+1)
					}
					if _, err := wsys.PublishWith(buildImage(t, b, n), opts); err != nil {
						t.Fatalf("publish %s: %v", n, err)
					}
					published[n] = true
				case op < 6: // remove a published one
					var have []string
					for n := range published {
						have = append(have, n)
					}
					if len(have) == 0 {
						continue
					}
					n := have[rng.Intn(len(have))]
					if err := wsys.Remove(n); err != nil {
						t.Fatalf("remove %s: %v", n, err)
					}
					delete(published, n)
				case op < 8: // expiry sweep at an advancing deadline
					clock += int64(rng.Intn(4) + 1)
					expired, err := wsys.ExpireAt(clock)
					if err != nil {
						t.Fatalf("expire at %d: %v", clock, err)
					}
					for _, n := range expired {
						delete(published, n)
					}
				case op < 9: // vacuum (journaled accounting rewrite + GC)
					if _, err := wsys.Vacuum(); err != nil {
						t.Fatalf("vacuum: %v", err)
					}
				case op < 11: // commit a batch
					if _, err := wsys.Sync(); err != nil {
						t.Fatal(err)
					}
				default: // epoch switch
					if _, err := wsys.Compact(); err != nil {
						t.Fatal(err)
					}
					compacted = true
				}
				if rng.Intn(3) == 0 {
					// Random catch-up boundary: the follower must land on
					// exactly the writer's durable state.
					mustCatchUp(t, rep)
					if _, err := wsys.Sync(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if !compacted {
				if _, err := wsys.Compact(); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := wsys.Sync(); err != nil {
				t.Fatal(err)
			}
			mustCatchUp(t, rep)

			if !bytes.Equal(rep.Repo().MetaSnapshot(), wsys.Repo().MetaSnapshot()) {
				t.Fatalf("metadata snapshots differ after final catch-up")
			}
			wstats, fstats := wsys.Repo().Stats(), rep.Repo().Stats()
			if wstats.VMIs != fstats.VMIs || wstats.Bases != fstats.Bases || wstats.Packages != fstats.Packages {
				t.Fatalf("logical stats differ: writer %+v, follower %+v", wstats, fstats)
			}
			for n := range published {
				wn, wsum := retrieveSum(t, wsys, n)
				fn, fsum := retrieveSum(t, fsys, n)
				if wn != fn || wsum != fsum {
					t.Fatalf("%s differs: writer %d bytes %s, follower %d bytes %s", n, wn, wsum, fn, fsum)
				}
			}
		})
	}
}

// TestReplicaSurvivesWriterCrash is the crash-the-writer sweep across the
// shipping boundary: a follower catches up, the writer crashes at every
// call of a Sync and of a Compact of the next publish, reopens (running
// its own recovery) at the same address, and the follower — holding state
// applied before the crash — catches up against the recovered writer and
// converges to it, metadata and retrievals alike. The windows name the
// writer's protocol step last completed.
func TestReplicaSurvivesWriterCrash(t *testing.T) {
	b := builder.New(catalog.NewUniverse())
	redis := buildImage(t, b, "Redis")
	template := t.TempDir()
	wsys := openWriter(t, template)
	publish(t, wsys, b, "Mini")
	if err := wsys.Close(); err != nil {
		t.Fatal(err)
	}
	trial := func(compact bool) fsxtest.Trial {
		return func(t *testing.T, ffs *fsx.Fault, n int) string {
			dir := fsxtest.CopyDir(t, template)
			repo, err := vmirepo.OpenAtOpts(dir, testDev, vmirepo.OpenOptions{FS: ffs})
			if err != nil {
				t.Fatal(err)
			}
			wsys := core.NewSystemWithRepo(repo, testDev, core.Options{})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := &http.Server{Handler: server.New(wsys)}
			go srv.Serve(ln)
			rep := replica.New(ln.Addr().String(), blobstore.New(), testDev, replica.Options{
				Client: client.Options{Timeout: time.Minute},
			})
			t.Cleanup(rep.Close)
			mustCatchUp(t, rep)

			if _, err := wsys.Publish(redis.Clone()); err != nil {
				t.Fatal(err)
			}
			ffs.Inject(fsx.Crash, n, "")
			if compact {
				_, err = wsys.Compact()
			} else {
				_, err = wsys.Sync()
			}
			if err != nil && !ffs.Crashed() {
				t.Fatalf("commit: %v", err)
			}
			srv.Close()
			if !ffs.Crashed() {
				if err := wsys.Close(); err != nil {
					t.Fatal(err)
				}
			}

			// Reopen: the writer recovers to a commit boundary. Recovery may
			// have replayed a complete-but-unacknowledged batch into memory
			// without advancing the durable watermark; the writer's first
			// sync re-acknowledges it, exactly as a restarted daemon would
			// before serving.
			wsys2 := openWriter(t, dir)
			t.Cleanup(func() { wsys2.Close() })
			if _, err := wsys2.Sync(); err != nil {
				t.Fatalf("post-recovery sync: %v", err)
			}
			ln2, err := net.Listen("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			srv2 := &http.Server{Handler: server.New(wsys2)}
			go srv2.Serve(ln2)
			t.Cleanup(func() { srv2.Close() })
			mustCatchUp(t, rep)
			if !bytes.Equal(rep.Repo().MetaSnapshot(), wsys2.Repo().MetaSnapshot()) {
				t.Fatalf("follower does not match the recovered writer")
			}
			fsys := core.NewSystemWithRepo(rep.Repo(), testDev, core.Options{})
			names := wsys2.Repo().VMIs()
			sort.Strings(names)
			for _, name := range names {
				wn, wsum := retrieveSum(t, wsys2, name)
				fn, fsum := retrieveSum(t, fsys, name)
				if wn != fn || wsum != fsum {
					t.Fatalf("recovered %s differs on the follower", name)
				}
			}
			return strings.Join(names, ",")
		}
	}
	states := []string{"Mini", "Mini,Redis"}
	fsxtest.Sweep(t, states, []fsxtest.Window{
		{Name: "before-append", Want: states[0]},
		{Name: "after-append", From: "meta.commit", Want: states[1]},
		{Name: "after-commit", From: "index", Want: states[1]},
	}, trial(false))
	fsxtest.Sweep(t, states, []fsxtest.Window{
		{Name: "before-snapshot", Want: states[0]},
		{Name: "after-snapshot", From: "meta.wal-", Want: states[0]},
		{Name: "after-wal-reset", From: "meta.commit", Want: states[0]},
		{Name: "after-compact-commit", Op: "syncdir", Want: states[1]},
	}, trial(true))
}
