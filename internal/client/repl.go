// Replication client: the follower side of snapshot + WAL shipping.
// Every shipped byte stream is verified against the server's
// X-Expel-Sha256/X-Expel-Bytes trailers before it is trusted — a
// truncated or damaged snapshot or WAL tail surfaces as an error, never
// as silently wrong metadata. A WAL request whose epoch the writer has
// compacted away unwraps to api.ErrEpochGone (metawal.ErrEpochGone in
// process), the follower's signal to restart from the current snapshot.
package client

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"net/http"
	"strconv"

	"expelliarmus/internal/wire"
)

// ReplCommit returns the writer's current durable position: the epoch of
// its live snapshot/WAL pair and the commit-marker-covered WAL length.
func (c *Client) ReplCommit(parent context.Context) (wire.ReplCommit, error) {
	var out wire.ReplCommit
	err := c.getJSON(parent, "/v1/repl/commit", &out)
	return out, err
}

// ReplSnapshotReader fetches the writer's full metadata snapshot as a
// verified stream: the returned reader delivers exactly size bytes and
// fails at EOF — never silently — if the body was truncated or does not
// match the server's digest/length trailers. It never buffers the
// snapshot client-side, so a follower restart holds one copy of the
// metadata, not two. The caller must Close the reader; establishment
// failures are not retried (the catch-up loop re-polls).
func (c *Client) ReplSnapshotReader(parent context.Context) (uint64, io.ReadCloser, int64, error) {
	resp, done, err := c.get(parent, c.base+"/v1/repl/snapshot")
	if err != nil {
		return 0, nil, 0, err
	}
	epoch, err := replEpoch(resp)
	if err != nil {
		done()
		return 0, nil, 0, err
	}
	size, err := strconv.ParseInt(resp.Header.Get(wire.HeaderSize), 10, 64)
	if err != nil || size < 0 {
		done()
		return 0, nil, 0, fmt.Errorf("client: bad %s header %q", wire.HeaderSize, resp.Header.Get(wire.HeaderSize))
	}
	return epoch, &verifiedReader{resp: resp, h: sha256.New(), done: done}, size, nil
}

// replEpoch parses a replication reply's epoch header.
func replEpoch(resp *http.Response) (uint64, error) {
	epoch, err := strconv.ParseUint(resp.Header.Get(wire.HeaderEpoch), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("client: bad %s header: %v", wire.HeaderEpoch, err)
	}
	return epoch, nil
}

// verifiedReader streams one replication body, hashing as it goes and
// settling the digest/length trailers when the body ends. Its Read never
// returns a clean io.EOF for a stream that failed verification.
type verifiedReader struct {
	resp *http.Response
	h    hash.Hash
	n    int64
	done func()
	err  error
}

func (vr *verifiedReader) Read(p []byte) (int, error) {
	if vr.err != nil {
		return 0, vr.err
	}
	n, err := vr.resp.Body.Read(p)
	vr.h.Write(p[:n])
	vr.n += int64(n)
	switch {
	case err == io.EOF:
		if vr.err = checkTrailers(vr.resp.Trailer, vr.n, vr.h); vr.err == nil {
			vr.err = io.EOF
		}
	case err != nil:
		vr.err = fmt.Errorf("client: stream aborted after %d bytes (%w): %w", vr.n, err, ErrTruncated)
	}
	return n, vr.err
}

func (vr *verifiedReader) Close() error {
	vr.done()
	return nil
}

// ReplWAL fetches the writer's durable WAL tail [from, durable) of the
// given epoch. An empty slice means the follower is caught up. A stale
// epoch unwraps to metawal.ErrEpochGone.
func (c *Client) ReplWAL(parent context.Context, epoch uint64, from int64) ([]byte, error) {
	u := fmt.Sprintf("%s/v1/repl/wal?epoch=%d&from=%d", c.base, epoch, from)
	var buf bytes.Buffer
	err := c.doIdempotent(func() (bool, error) {
		resp, done, err := c.get(parent, u)
		if err != nil {
			return false, err
		}
		defer done()
		gotEpoch, err := replEpoch(resp)
		if err != nil {
			return false, err
		}
		if gotEpoch != epoch {
			return false, fmt.Errorf("client: WAL reply epoch %d, requested %d", gotEpoch, epoch)
		}
		buf.Reset()
		_, err = verifyRaw(resp, &buf)
		return false, err
	})
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ReplBlob streams one raw blob by content ID into w, verifying the
// digest/length trailers. The caller (the read-through cache) re-derives
// the content address as it stores the bytes, so a blob that passed the
// transport check but hashes to the wrong ID is still caught.
func (c *Client) ReplBlob(parent context.Context, id string, w io.Writer) (int64, error) {
	var n int64
	err := c.doIdempotent(func() (bool, error) {
		resp, done, err := c.get(parent, c.base+"/v1/repl/blob/"+id)
		if err != nil {
			return false, err
		}
		defer done()
		n, err = verifyRaw(resp, w)
		return n > 0, err
	})
	return n, err
}
