package main

// Remote mode: the repository is a live expelserverd reached through the
// thin HTTP client. Publishes stream up as wire envelopes and retrievals
// stream back with end-to-end verification.

import (
	"context"
	"fmt"
	"io"
	"time"

	"expelliarmus"
	"expelliarmus/internal/client"
	"expelliarmus/internal/wire"
)

// refuseRepositoryFlags rejects repository-side configuration in remote
// mode: it belongs to the server's operator, and a client silently
// publishing into a differently-configured repository than it asked for
// would be worse than an error.
func refuseRepositoryFlags(loadFile string, noDedup, noBaseSel bool) error {
	switch {
	case loadFile != "":
		return fmt.Errorf("-load restores an in-process repository; it cannot be used with -server (start expelserverd with -store instead)")
	case noDedup:
		return fmt.Errorf("-no-dedup configures the repository; set it where expelserverd runs, not with -server")
	case noBaseSel:
		return fmt.Errorf("-no-base-selection configures the repository; set it where expelserverd runs, not with -server")
	}
	return nil
}

// remote adapts the HTTP client.
type remote struct {
	ctx context.Context
	cl  *client.Client
}

func dialRemote(addr string) remote {
	return remote{context.Background(), client.New(addr, client.Options{Timeout: 10 * time.Minute, Retries: 2})}
}

func (r remote) publish(img *expelliarmus.Image, opts expelliarmus.PublishOptions) (*expelliarmus.PublishResult, error) {
	return r.cl.Publish(r.ctx, img.EncodeWireWith(opts))
}

func (r remote) retrieve(name string) (int64, *expelliarmus.RetrieveResult, error) {
	return r.cl.Retrieve(r.ctx, name, io.Discard)
}

func (r remote) assemble(name string, primaries []string) (int64, *expelliarmus.RetrieveResult, error) {
	return r.cl.Assemble(r.ctx, wire.AssembleRequest{Name: name, Primaries: primaries}, io.Discard)
}

func (r remote) remove(name string) error { return r.cl.Remove(r.ctx, name) }

func (r remote) sync() (*expelliarmus.SyncStats, error) { return r.cl.Sync(r.ctx) }

func (r remote) compact() (*expelliarmus.SyncStats, error) { return r.cl.Compact(r.ctx) }

func (r remote) vacuum() (*expelliarmus.VacuumStats, error) { return r.cl.Vacuum(r.ctx) }

func (r remote) stats() (*expelliarmus.Stats, error) { return r.cl.Stats(r.ctx) }

func (r remote) dot() (string, error) { return r.cl.GraphDOT(r.ctx) }

func (r remote) snapshot(w io.Writer) error {
	_, err := r.cl.Snapshot(r.ctx, w)
	return err
}
