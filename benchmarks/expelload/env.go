package main

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"expelliarmus/internal/blobstore"
	"expelliarmus/internal/catalog"
	"expelliarmus/internal/client"
	"expelliarmus/internal/core"
	"expelliarmus/internal/replica"
	"expelliarmus/internal/server"
	"expelliarmus/internal/simio"
	"expelliarmus/internal/vmi"
	"expelliarmus/internal/vmirepo"
	"expelliarmus/internal/wire"
)

// loadClients is the number of load goroutines, each with its own HTTP
// connection. It equals nproc on the box the bounds were set on; more
// clients than cores would measure the scheduler.
const loadClients = 2

const clientTimeout = 2 * time.Minute

// newDevice is the daemon's cost-model device. Its modeled seconds are
// never read here; the repository just needs one to charge.
func newDevice() *simio.Device {
	return simio.NewDevice(simio.PaperProfile().Scaled(catalog.ByteScale, catalog.FileScale))
}

// node is one repository the way expelserverd runs it: a core.System over
// a disk store in a fresh directory (or the in-memory backend for ladder
// rung L2), optionally behind the daemon's HTTP handler on a loopback
// port, optionally a follower of another node.
type node struct {
	dir  string // "" when memory-backed
	sys  *core.System
	rep  *replica.Replica
	srv  *http.Server
	done chan error // Serve's return
	addr string
}

// startWriter opens a repository with the daemon's defaults: Parallelism
// 0, default WAL and blob compaction thresholds.
func startWriter(storeRoot string, disk bool, cacheBytes int64, serve bool) (*node, error) {
	n := &node{}
	opts := core.Options{CacheBytes: cacheBytes}
	if disk {
		dir, err := os.MkdirTemp(storeRoot, "expelload-")
		if err != nil {
			return nil, err
		}
		n.dir = dir
		repo, err := vmirepo.OpenAtOpts(dir, newDevice(), vmirepo.OpenOptions{})
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		n.sys = core.NewSystemWithRepo(repo, newDevice(), opts)
	} else {
		n.sys = core.NewSystem(newDevice(), opts)
	}
	if serve {
		if err := n.serve(); err != nil {
			n.close()
			return nil, err
		}
	}
	return n, nil
}

// startFollower starts a read-only replica of the writer at writerAddr
// with the in-memory local blob cache expelserverd -follow defaults to.
// The caller drives CatchUp; no background poll runs.
func startFollower(writerAddr string, cacheBytes int64, serve bool) (*node, error) {
	n := &node{}
	n.rep = replica.New("http://"+writerAddr, blobstore.New(), newDevice(), replica.Options{
		Client: client.Options{Timeout: clientTimeout},
	})
	n.sys = core.NewSystemWithRepo(n.rep.Repo(), newDevice(), core.Options{CacheBytes: cacheBytes})
	if serve {
		if err := n.serve(); err != nil {
			n.close()
			return nil, err
		}
	}
	return n, nil
}

func (n *node) serve() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	h := server.New(n.sys)
	if n.rep != nil {
		h.SetReplica(n.rep)
	}
	n.srv = &http.Server{Handler: h}
	n.addr = ln.Addr().String()
	n.done = make(chan error, 1)
	go func() { n.done <- n.srv.Serve(ln) }()
	return nil
}

// stop shuts the HTTP front and closes the repository (a final Sync on
// disk) but leaves the store directory for probes; close also removes it.
func (n *node) stop() error {
	var first error
	if n.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := n.srv.Shutdown(ctx); err != nil {
			first = err
			n.srv.Close()
		}
		cancel()
		if err := <-n.done; err != nil && !errors.Is(err, http.ErrServerClosed) && first == nil {
			first = err
		}
		n.srv = nil
	}
	if n.rep != nil {
		n.rep.Close()
		n.rep = nil
	}
	if n.sys != nil {
		if err := n.sys.Close(); err != nil && first == nil {
			first = fmt.Errorf("closing repository: %w", err)
		}
		n.sys = nil
	}
	return first
}

func (n *node) close() error {
	err := n.stop()
	if n.dir != "" {
		if rerr := os.RemoveAll(n.dir); rerr != nil && err == nil {
			err = rerr
		}
	}
	return err
}

// fingerprint identifies an image stream: its length and CRC-32C. The
// client already checks every download's SHA-256 against the server's
// trailer; the fingerprint is the independent comparison against the
// reference taken in-process at set-up, cheap enough not to distort the
// latencies it guards.
type fingerprint struct {
	n   int64
	crc uint32
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// fpWriter fingerprints what is written through it.
type fpWriter struct{ fp fingerprint }

func (w *fpWriter) Write(p []byte) (int, error) {
	w.fp.crc = crc32.Update(w.fp.crc, castagnoli, p)
	w.fp.n += int64(len(p))
	return len(p), nil
}

// target is one rung's way of issuing the four operations. prepare runs
// outside the timed region and returns what publish consumes; publish
// reports whether the image stored a new base.
type target interface {
	retrieve(name string, w io.Writer) error
	prepare(img *vmi.Image) *vmi.Image
	publish(img *vmi.Image) (baseStored bool, err error)
	remove(name string) error
	sync() error
	layer() string // span-name prefix: the layer whose public functions are called
}

// httpTarget drives a node through the Go client over loopback TCP: the
// end-to-end path, rung L0.
type httpTarget struct{ cl *client.Client }

func newHTTPTarget(addr string) *httpTarget {
	return &httpTarget{cl: client.New(addr, client.Options{Timeout: clientTimeout})}
}

func (t *httpTarget) layer() string { return "client" }

func (t *httpTarget) retrieve(name string, w io.Writer) error {
	_, _, err := t.cl.Retrieve(context.Background(), name, w)
	return err
}

func (t *httpTarget) prepare(img *vmi.Image) *vmi.Image { return img }

func (t *httpTarget) publish(img *vmi.Image) (bool, error) {
	res, err := t.cl.Publish(context.Background(), func(w io.Writer) error { return wire.WriteImage(w, img) })
	if err != nil {
		return false, err
	}
	return res.BaseStored, nil
}

func (t *httpTarget) remove(name string) error { return t.cl.Remove(context.Background(), name) }

func (t *httpTarget) sync() error {
	_, err := t.cl.Sync(context.Background())
	return err
}

func (t *httpTarget) close() { t.cl.Close() }

// coreTarget calls core.System directly: rung L1 on the disk store, rung
// L2 on the in-memory backend (where Sync has nothing to do).
type coreTarget struct {
	sys     *core.System
	durable bool
}

func (t *coreTarget) layer() string { return "core" }

func (t *coreTarget) retrieve(name string, w io.Writer) error {
	_, _, err := t.sys.RetrieveTo(w, name)
	return err
}

// prepare clones: a direct publish consumes its image.
func (t *coreTarget) prepare(img *vmi.Image) *vmi.Image { return img.Clone() }

func (t *coreTarget) publish(img *vmi.Image) (bool, error) {
	rep, err := t.sys.PublishWith(img, core.PublishOpts{})
	if err != nil {
		return false, err
	}
	return rep.BaseStored, nil
}

func (t *coreTarget) remove(name string) error { return t.sys.Remove(name) }

func (t *coreTarget) sync() error {
	if !t.durable {
		return nil
	}
	_, err := t.sys.Sync()
	return err
}
