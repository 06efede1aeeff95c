// Replication endpoints: the writer side of snapshot + WAL shipping. A
// follower (internal/replica) tails these four routes:
//
//	GET /v1/repl/commit              current epoch + durable WAL bytes
//	GET /v1/repl/snapshot            full metadata snapshot of the
//	                                 current epoch (X-Expel-Epoch header)
//	GET /v1/repl/wal?epoch=&from=    durable WAL tail [from, durable)
//	GET /v1/repl/blob/{id}           one raw blob by content ID
//
// The byte streams reuse the retrieval trailers (X-Expel-Sha256,
// X-Expel-Bytes), so a follower verifies every shipped byte the same way
// image downloads are verified. A WAL request for an epoch the writer's
// compaction has retired is 410 with kind "epoch-gone" — the signal to
// restart from the current snapshot.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"expelliarmus/internal/blobstore"
	"expelliarmus/internal/metawal"
	"expelliarmus/internal/wire"
)

// replWAL returns the repository's metadata WAL, or an error for servers
// that have nothing to ship (memory-backed daemons persist nothing).
func (s *Server) replWAL() (*metawal.Log, error) {
	wal := s.sys.Repo().WAL()
	if wal == nil {
		return nil, fmt.Errorf("server: repository has no WAL to replicate (memory-backed?)")
	}
	return wal, nil
}

func (s *Server) handleReplCommit(w http.ResponseWriter, r *http.Request) {
	wal, err := s.replWAL()
	if err != nil {
		writeError(w, err)
		return
	}
	epoch, durable := wal.CommitState()
	writeJSON(w, wire.ReplCommit{Epoch: epoch, DurableBytes: durable})
}

// streamVerified copies a replication byte stream to the client with the
// digest/length trailers, aborting the connection if the source fails
// mid-body (mirroring streamImage's truncation contract).
func streamVerified(w http.ResponseWriter, rc io.ReadCloser, size int64) {
	defer rc.Close()
	w.Header().Set("Trailer", wire.HeaderSha256+", "+wire.HeaderBytes)
	w.Header().Set("Content-Type", "application/octet-stream")
	h := sha256.New()
	hw := &hashCountWriter{w: w, h: h}
	if _, err := io.Copy(hw, rc); err != nil || hw.n != size {
		panic(http.ErrAbortHandler)
	}
	w.Header().Set(wire.HeaderSha256, hex.EncodeToString(h.Sum(nil)))
	w.Header().Set(wire.HeaderBytes, strconv.FormatInt(hw.n, 10))
}

func (s *Server) handleReplSnapshot(w http.ResponseWriter, r *http.Request) {
	wal, err := s.replWAL()
	if err != nil {
		writeError(w, err)
		return
	}
	epoch, rc, size, err := wal.SnapshotReader()
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set(wire.HeaderEpoch, strconv.FormatUint(epoch, 10))
	w.Header().Set(wire.HeaderSize, strconv.FormatInt(size, 10))
	streamVerified(w, rc, size)
}

func (s *Server) handleReplWAL(w http.ResponseWriter, r *http.Request) {
	wal, err := s.replWAL()
	if err != nil {
		writeError(w, err)
		return
	}
	epoch, err := strconv.ParseUint(r.URL.Query().Get("epoch"), 10, 64)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad epoch: %v", err), http.StatusBadRequest)
		return
	}
	from, err := strconv.ParseInt(r.URL.Query().Get("from"), 10, 64)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad from offset: %v", err), http.StatusBadRequest)
		return
	}
	rc, n, err := wal.WALReader(epoch, from)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set(wire.HeaderEpoch, strconv.FormatUint(epoch, 10))
	streamVerified(w, rc, n)
}

func (s *Server) handleReplBlob(w http.ResponseWriter, r *http.Request) {
	id, err := blobstore.ParseID(r.PathValue("id"))
	if err != nil {
		http.Error(w, fmt.Sprintf("bad blob id: %v", err), http.StatusBadRequest)
		return
	}
	rc, size, err := s.sys.Repo().OpenBlob(id)
	if err != nil {
		writeError(w, err)
		return
	}
	streamVerified(w, rc, size)
}
