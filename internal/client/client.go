// Package client is the thin Go client of the Expelliarmus repository
// server (internal/server): one pooled HTTP connection set per Client,
// per-request deadlines, and retries for idempotent requests only.
//
// Streaming fidelity. Image downloads are verified end to end: the body
// is hashed as it streams into the caller's writer and checked against
// the server's X-Expel-Sha256/X-Expel-Bytes trailers, and a connection
// aborted mid-stream surfaces as a read error (the chunked framing never
// terminates), so a truncated or damaged image can never be mistaken for
// a complete one.
//
// Error mapping. A 404 with error kind "not-found" unwraps to
// api.ErrNotFound and a kind "corrupt" reply to api.ErrBlobCorrupt — the
// very values vmirepo.ErrNotFound and blobstore.ErrCorrupt name in
// process, declared in the internal/api leaf so that this package links
// no storage engine — so code written against the in-process API routes
// remote absence and remote corruption identically. A stream the server
// aborted mid-body — or ended without its integrity trailers — unwraps to
// ErrTruncated, never a bare EOF, so callers can tell "the image is
// incomplete" from "the image failed verification"; a truncated stream
// that delivered no bytes to the caller's sink is retried like any
// transport failure.
package client

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"expelliarmus/internal/wire"
)

// Options configure a Client.
type Options struct {
	// Timeout is the per-request deadline layered onto the caller's
	// context; zero means no client-imposed deadline.
	Timeout time.Duration
	// Retries is how many times an idempotent request (the GETs and
	// DELETE) is retried after a transport-level failure, provided no
	// response bytes reached the caller yet. Non-idempotent requests
	// (publish, assemble, sync) are never retried. Zero means one extra
	// attempt would be zero — i.e. no retries.
	Retries int
}

// Client talks to one repository server. It is safe for concurrent use;
// connections are pooled and reused across requests.
type Client struct {
	base    string
	hc      *http.Client
	timeout time.Duration
	retries int
}

// New returns a client for addr ("host:port" or a full http/https URL).
func New(addr string, o Options) *Client {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	return &Client{
		base: base,
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}},
		timeout: o.Timeout,
		retries: o.Retries,
	}
}

// Close releases pooled idle connections. In-flight requests finish.
func (c *Client) Close() { c.hc.CloseIdleConnections() }

func (c *Client) ctx(parent context.Context) (context.Context, context.CancelFunc) {
	if c.timeout <= 0 {
		return parent, func() {}
	}
	return context.WithTimeout(parent, c.timeout)
}

// ErrTruncated reports that an image stream ended before its integrity
// trailers arrived: the server (or the connection) aborted mid-body.
// The bytes already delivered are an incomplete prefix, not a damaged
// whole — callers distinguishing "retry the download" from "the image
// failed verification" should test for this sentinel with errors.Is.
var ErrTruncated = errors.New("image stream truncated before trailers")

// apiError reconstructs the operation error from a non-2xx reply,
// resurfacing the server's error kind as the sentinel the in-process API
// uses for it (the wire.ErrorKinds table).
func apiError(resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	text := strings.TrimSpace(string(msg))
	if text == "" {
		text = resp.Status
	}
	if row, ok := wire.KindNamed(resp.Header.Get(wire.HeaderErrorKind)); ok {
		return fmt.Errorf("client: %s: %w", text, row.Err)
	}
	return fmt.Errorf("client: server returned %s: %s", resp.Status, text)
}

// doIdempotent issues req-building attempts until one succeeds, retrying
// transport-level failures (and streams truncated before any byte
// reached the caller) up to c.retries times. The builder is called
// afresh per attempt — each one constructs a brand-new request, so a
// response body partially consumed by the previous attempt can never
// leak into the next. attempt must report via wrote whether any
// response bytes already reached the caller's sink — once they have,
// retrying would corrupt it, so the error is final.
func (c *Client) doIdempotent(attempt func() (wrote bool, err error)) error {
	var err error
	for try := 0; ; try++ {
		var wrote bool
		wrote, err = attempt()
		if err == nil {
			return nil
		}
		var uerr *url.Error
		retryable := errors.As(err, &uerr) || errors.Is(err, ErrTruncated)
		if !retryable || wrote || try >= c.retries {
			return err
		}
	}
}

// do issues one request under the client's per-request deadline. A reply
// carrying the wanted status is returned together with a done func that
// closes its body and releases the deadline; any other status becomes
// the operation error it encodes.
func (c *Client) do(parent context.Context, method, u, contentType string, body io.Reader, want int) (*http.Response, func(), error) {
	ctx, cancel := c.ctx(parent)
	req, err := http.NewRequestWithContext(ctx, method, u, body)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	done := func() { resp.Body.Close(); cancel() }
	if resp.StatusCode != want {
		defer done()
		return nil, nil, apiError(resp)
	}
	return resp, done, nil
}

// get is do for a body-less GET expecting 200.
func (c *Client) get(parent context.Context, u string) (*http.Response, func(), error) {
	return c.do(parent, http.MethodGet, u, "", nil, http.StatusOK)
}

// callJSON issues one request and decodes its 200 reply into out.
func (c *Client) callJSON(parent context.Context, method, path, contentType string, body io.Reader, out any) error {
	resp, done, err := c.do(parent, method, c.base+path, contentType, body, http.StatusOK)
	if err != nil {
		return err
	}
	defer done()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decode %s reply: %w", path, err)
	}
	return nil
}

// getJSON is callJSON for an idempotent (retried) GET.
func (c *Client) getJSON(parent context.Context, path string, out any) error {
	return c.doIdempotent(func() (bool, error) {
		return false, c.callJSON(parent, http.MethodGet, path, "", nil, out)
	})
}

// Retrieve streams the named VMI's serialized image into w, verifying
// length and SHA-256 against the response trailers. It returns the byte
// count and the server's retrieval report.
func (c *Client) Retrieve(ctx context.Context, name string, w io.Writer) (int64, *wire.RetrieveResult, error) {
	var n int64
	var res *wire.RetrieveResult
	err := c.doIdempotent(func() (bool, error) {
		resp, done, err := c.get(ctx, c.base+"/v1/images/"+url.PathEscape(name))
		if err != nil {
			return false, err
		}
		defer done()
		n, res, err = verifyStream(resp, w)
		return n > 0, err
	})
	return n, res, err
}

// verifyRaw drains a trailer-verified byte stream into w. A server abort
// mid-stream surfaces as ErrTruncated — whether it manifests as a body
// read error (chunked framing cut off) or as a body that ended cleanly
// but never delivered its trailers — so callers are never handed a
// generic EOF for an incomplete stream.
func verifyRaw(resp *http.Response, w io.Writer) (int64, error) {
	h := sha256.New()
	n, err := io.Copy(io.MultiWriter(w, h), resp.Body)
	if err != nil {
		return n, fmt.Errorf("client: stream aborted after %d bytes (%w): %w", n, err, ErrTruncated)
	}
	return n, checkTrailers(resp.Trailer, n, h)
}

// checkTrailers settles a fully read stream of n bytes hashed into h
// against the server's digest/length trailers.
func checkTrailers(trailer http.Header, n int64, h hash.Hash) error {
	wantSha, wantBytes := trailer.Get(wire.HeaderSha256), trailer.Get(wire.HeaderBytes)
	if wantSha == "" || wantBytes == "" {
		return fmt.Errorf("client: stream ended without integrity trailers: %w", ErrTruncated)
	}
	if want, err := strconv.ParseInt(wantBytes, 10, 64); err != nil || want != n {
		return fmt.Errorf("client: streamed %d bytes, server reported %q", n, wantBytes)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != wantSha {
		return fmt.Errorf("client: stream digest %s does not match server's %s", got, wantSha)
	}
	return nil
}

// verifyStream is verifyRaw for an image stream, whose trailers also
// carry the operation's result.
func verifyStream(resp *http.Response, w io.Writer) (int64, *wire.RetrieveResult, error) {
	n, err := verifyRaw(resp, w)
	if err != nil {
		return n, nil, err
	}
	resJSON := resp.Trailer.Get(wire.HeaderResult)
	if resJSON == "" {
		return n, nil, fmt.Errorf("client: stream ended without its result trailer: %w", ErrTruncated)
	}
	var res wire.RetrieveResult
	if err := json.Unmarshal([]byte(resJSON), &res); err != nil {
		return n, nil, fmt.Errorf("client: decode result trailer: %w", err)
	}
	return n, &res, nil
}

// Publish streams an image envelope produced by encode (typically
// Image.EncodeWire or wire.WriteImage) to the server and returns its
// publish report. Publish is not idempotent and never retried.
func (c *Client) Publish(parent context.Context, encode func(io.Writer) error) (*wire.PublishResult, error) {
	pr, pw := io.Pipe()
	go func() { pw.CloseWithError(encode(pw)) }()
	// Unblock the encoder goroutine on any early exit (send error, or a
	// server that replied without draining the body).
	defer pr.Close()
	var res wire.PublishResult
	if err := c.callJSON(parent, http.MethodPost, "/v1/images", "application/octet-stream", pr, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Assemble asks the server to build a VMI from stored packages and
// streams the resulting image into w (verified like Retrieve). Assembly
// has no repository side effects, but the response is a one-shot stream,
// so it is not retried.
func (c *Client) Assemble(parent context.Context, req wire.AssembleRequest, w io.Writer) (int64, *wire.RetrieveResult, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, nil, err
	}
	resp, done, err := c.do(parent, http.MethodPost, c.base+"/v1/assemble", "application/json", bytes.NewReader(body), http.StatusOK)
	if err != nil {
		return 0, nil, err
	}
	defer done()
	return verifyStream(resp, w)
}

// Remove deletes a published VMI (with server-side garbage collection).
func (c *Client) Remove(parent context.Context, name string) error {
	return c.doIdempotent(func() (bool, error) {
		_, done, err := c.do(parent, http.MethodDelete, c.base+"/v1/images/"+url.PathEscape(name), "", nil, http.StatusNoContent)
		if err != nil {
			return false, err
		}
		done()
		return false, nil
	})
}

// Stats returns the server's repository and cache statistics.
func (c *Client) Stats(parent context.Context) (*wire.Stats, error) {
	var out wire.Stats
	if err := c.getJSON(parent, "/v1/stats", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// post issues one maintenance verb and decodes its reply. The verbs
// mutate on-disk state, so none of them is ever retried.
func post[T any](c *Client, parent context.Context, path string) (*T, error) {
	var out T
	if err := c.callJSON(parent, http.MethodPost, path, "", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Sync forces a durable save on a disk-backed server.
func (c *Client) Sync(parent context.Context) (*wire.SyncStats, error) {
	return post[wire.SyncStats](c, parent, "/v1/sync")
}

// Compact forces compaction of the server's stores — metadata WAL
// snapshot rewrite plus blob segment reclamation — and returns the same
// durable-save breakdown a sync does.
func (c *Client) Compact(parent context.Context) (*wire.SyncStats, error) {
	return post[wire.SyncStats](c, parent, "/v1/compact")
}

// Vacuum reclaims dangling server-side state — unreferenced packages,
// orphaned archives and lifecycle records, blob orphans — and compacts
// the stores.
func (c *Client) Vacuum(parent context.Context) (*wire.VacuumStats, error) {
	return post[wire.VacuumStats](c, parent, "/v1/vacuum")
}

// Snapshot streams the server's repository snapshot into w.
func (c *Client) Snapshot(parent context.Context, w io.Writer) (int64, error) {
	var n int64
	err := c.doIdempotent(func() (bool, error) {
		resp, done, err := c.get(parent, c.base+"/v1/snapshot")
		if err != nil {
			return false, err
		}
		defer done()
		n, err = io.Copy(w, resp.Body)
		return n > 0, err
	})
	return n, err
}

// GraphDOT returns the server's master graphs in Graphviz DOT form.
func (c *Client) GraphDOT(parent context.Context) (string, error) {
	var out string
	err := c.doIdempotent(func() (bool, error) {
		resp, done, err := c.get(parent, c.base+"/v1/graphs/dot")
		if err != nil {
			return false, err
		}
		defer done()
		b, err := io.ReadAll(resp.Body)
		out = string(b)
		return false, err
	})
	return out, err
}
