// Command expelserverd serves one Expelliarmus repository over HTTP: the
// network face of the Fig. 2 workflow. Clients publish image envelopes,
// retrieve and assemble VMIs as verified byte streams, remove images,
// and read stats — all against one shared repository, memory-backed by
// default or durable on disk with -store.
//
// Usage:
//
//	expelserverd [-addr 127.0.0.1:9747] [-store DIR] [-cache BYTES]
//	             [-wal-compact BYTES] [-blob-compact-ratio R]
//	             [-sync-interval D] [-expire-interval D]
//	             [-quota tenant=bytes,...]
//	             [-tls-cert FILE -tls-key FILE]
//	             [-follow URL [-follow-poll D]]
//
// With -store the repository lives in append-only segment files plus a
// metadata WAL under DIR and survives restarts; shutdown (SIGINT or
// SIGTERM) drains in-flight requests, then syncs and closes the store.
// -sync-interval makes published state durable (and visible to
// followers) within that bound by syncing in the background; a quiet
// interval costs one small append and an idle one costs nothing.
// With -tls-cert/-tls-key the server speaks HTTPS (and HTTP/2, which the
// standard library enables over TLS automatically).
//
// -expire-interval runs the TTL sweep in the background: images
// published with an expiry timestamp (expelctl -ttl / -expires-at) are
// removed — with full garbage collection — within that bound of
// expiring. -quota caps tenants' live bytes ("alice=100000000,bob=5e9"
// style decimal byte counts): a publish charged to a capped tenant that
// would exceed its cap is rejected with 413 and error kind
// "quota-exceeded". Both are writer-side options; followers replicate
// the writer's expiries like any other removal.
//
// With -follow the daemon is a read-only replica of the writer daemon at
// URL: it tails the writer's snapshot + WAL shipping endpoints, serves
// retrieve/assemble/stats from the replicated metadata (pulling blobs it
// has not yet cached from the writer on first use), and answers mutating
// requests with 403 and error kind "read-only". -store then names the
// replica's local blob cache directory (in-memory when omitted).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"expelliarmus/internal/blobstore"
	"expelliarmus/internal/blobstore/diskstore"
	"expelliarmus/internal/catalog"
	"expelliarmus/internal/core"
	"expelliarmus/internal/replica"
	"expelliarmus/internal/server"
	"expelliarmus/internal/simio"
	"expelliarmus/internal/vmirepo"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9747", "listen address")
	store := flag.String("store", "", "repository directory for the durable disk backend (empty: in-memory)")
	cache := flag.Int64("cache", 0, "retrieval-cache bytes (0 disables)")
	walCompact := flag.Int64("wal-compact", 0, "metadata-WAL compaction threshold bytes (0 keeps the default)")
	blobRatio := flag.Float64("blob-compact-ratio", 0, "dead-byte fraction at which sealed blob segments compact on sync (0 keeps the default, negative disables the automatic trigger)")
	syncInterval := flag.Duration("sync-interval", 0, "background sync period for a disk-backed repository: published state becomes durable (and visible to followers) within this bound (0 syncs only on shutdown or explicit request)")
	expireInterval := flag.Duration("expire-interval", 0, "background TTL-sweep period: images published with an expiry timestamp are removed within this bound of expiring (0 disables the sweep)")
	quotas := flag.String("quota", "", "per-tenant live-byte caps as tenant=bytes[,tenant=bytes...]; publishes that would exceed a cap are rejected")
	tlsCert := flag.String("tls-cert", "", "TLS certificate file (with -tls-key enables HTTPS)")
	tlsKey := flag.String("tls-key", "", "TLS private key file")
	follow := flag.String("follow", "", "writer daemon URL to follow as a read-only replica")
	followPoll := flag.Duration("follow-poll", 500*time.Millisecond, "replica commit-poll interval")
	flag.Parse()

	if (*tlsCert == "") != (*tlsKey == "") {
		fail(fmt.Errorf("-tls-cert and -tls-key must be given together"))
	}

	tenantQuotas, err := parseQuotas(*quotas)
	if err != nil {
		fail(err)
	}

	dev := simio.NewDevice(simio.PaperProfile().Scaled(catalog.ByteScale, catalog.FileScale))
	opts := core.Options{CacheBytes: *cache, TenantQuotas: tenantQuotas}
	var sys *core.System
	var rep *replica.Replica
	bgCtx, stopBg := context.WithCancel(context.Background())
	defer stopBg()
	switch {
	case *follow != "":
		var local blobstore.Backend = blobstore.New()
		if *store != "" {
			ds, err := diskstore.Open(*store, diskstore.Options{})
			if err != nil {
				fail(err)
			}
			local = ds
		}
		rep = replica.New(*follow, local, dev, replica.Options{Poll: *followPoll, Logf: log.Printf})
		sys = core.NewSystemWithRepo(rep.Repo(), dev, opts)
		go rep.Run(bgCtx)
		log.Printf("expelserverd: following %s (blob cache: %s)", *follow, storeDesc(*store))
	case *store == "":
		sys = core.NewSystem(dev, opts)
		log.Printf("expelserverd: in-memory repository")
	default:
		repo, err := vmirepo.OpenAtOpts(*store, dev, vmirepo.OpenOptions{
			WALCompactBytes:      *walCompact,
			BlobCompactDeadRatio: *blobRatio,
		})
		if err != nil {
			fail(err)
		}
		sys = core.NewSystemWithRepo(repo, dev, opts)
		log.Printf("expelserverd: disk repository at %s", *store)
	}

	if *syncInterval > 0 && *follow == "" && *store != "" {
		go func() {
			tick := time.NewTicker(*syncInterval)
			defer tick.Stop()
			for {
				select {
				case <-bgCtx.Done():
					return
				case <-tick.C:
					if _, err := sys.Sync(); err != nil {
						log.Printf("expelserverd: background sync: %v", err)
					}
				}
			}
		}()
	}

	// TTL sweep — writer only; followers see the writer's expiries as
	// replicated removals.
	if *expireInterval > 0 && *follow == "" {
		go func() {
			tick := time.NewTicker(*expireInterval)
			defer tick.Stop()
			for {
				select {
				case <-bgCtx.Done():
					return
				case <-tick.C:
					removed, err := sys.ExpireAt(time.Now().Unix())
					if err != nil {
						log.Printf("expelserverd: expiry sweep: %v", err)
					}
					if len(removed) > 0 {
						log.Printf("expelserverd: expired %d image(s): %v", len(removed), removed)
					}
				}
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	h := server.New(sys)
	if rep != nil {
		h.SetReplica(rep)
	}
	srv := &http.Server{Handler: h}
	serveErr := make(chan error, 1)
	go func() {
		if *tlsCert != "" {
			serveErr <- srv.ServeTLS(ln, *tlsCert, *tlsKey)
		} else {
			serveErr <- srv.Serve(ln)
		}
	}()
	log.Printf("expelserverd: serving on %s", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-serveErr:
		fail(err)
	}

	log.Printf("expelserverd: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("expelserverd: shutdown: %v", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("expelserverd: serve: %v", err)
	}
	stopBg() // replica loop and background sync, before the repository closes
	if rep != nil {
		rep.Close()
	}
	// Close is where a disk store's sticky failure surfaces; exit nonzero
	// so an operator (or CI) cannot miss it.
	if err := sys.Close(); err != nil {
		fail(fmt.Errorf("closing repository: %w", err))
	}
}

// parseQuotas parses "tenant=bytes[,tenant=bytes...]" into the per-tenant
// cap map ("" for no caps).
func parseQuotas(spec string) (map[string]int64, error) {
	if spec == "" {
		return nil, nil
	}
	out := map[string]int64{}
	for _, part := range strings.Split(spec, ",") {
		tenant, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || tenant == "" {
			return nil, fmt.Errorf("bad -quota entry %q, want tenant=bytes", part)
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -quota bytes for tenant %q: %q", tenant, val)
		}
		out[tenant] = n
	}
	return out, nil
}

func storeDesc(dir string) string {
	if dir == "" {
		return "in-memory"
	}
	return dir
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "expelserverd: %v\n", err)
	os.Exit(1)
}
