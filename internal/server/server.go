// Package server exposes one Expelliarmus system over HTTP — the network
// repository of the service era: publish, retrieve, assemble, remove,
// stats, sync, snapshot and graph export, with request and response
// bodies streamed end to end.
//
// Streaming contract. Retrieval and assembly responses carry the image
// bytes as a chunked body written straight from the assembly pipeline
// (core.RetrieveTo into the ResponseWriter — the server never holds a
// whole image), followed by HTTP trailers:
//
//	X-Expel-Sha256  hex SHA-256 of the body
//	X-Expel-Bytes   body length in bytes
//	X-Expel-Result  the operation's wire.RetrieveResult as JSON
//
// The server hashes no body. Its response writer is a core.DigestWriter,
// and core supplies every digest: a cached image's is the one its entry
// took when it was built, and a streamed retrieval's or assembly's comes
// from core's digest memo, keyed by the image's recipe (its base, user-data
// and package blobs and install order), so an image is hashed once per
// recipe, whatever generation or name asks for it; a repeat is checked by a
// CRC-32C as it streams, and fails rather than vouch for other bytes. A
// body core completes without a digest is aborted, never sent with an
// invented trailer. The client's check of the trailer is the end-to-end
// verification.
//
// The repository snapshot carries the same X-Expel-Sha256 and
// X-Expel-Bytes trailers, hashed as it is sent: its format has no
// checksum of its own.
//
// An error before the first body byte yields a clean status code; an
// error after bytes have flowed aborts the connection mid-chunk, so a
// client can never mistake a truncated image for a complete one (the
// chunked framing never terminates and the trailers never arrive).
//
// Error mapping. Absence and corruption are deliberately kept apart, on
// the wire as in the blob store: a missing VMI is 404 with
// X-Expel-Error-Kind "not-found", while a blob the store cannot serve
// faithfully is 500 with kind "corrupt" — the client resurfaces these as
// vmirepo.ErrNotFound and blobstore.ErrCorrupt respectively, so remote
// callers route the two cases exactly like in-process ones. The whole
// kind ↔ sentinel ↔ status vocabulary is the wire.ErrorKinds table.
package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"expelliarmus/internal/core"
	"expelliarmus/internal/wire"
)

// Server is an http.Handler serving one shared Expelliarmus system.
// Concurrency is delegated to the system itself, which is safe for any
// mix of publishes, retrievals and removals.
type Server struct {
	sys  *core.System
	mux  *http.ServeMux
	repl ReplStatser
}

// ReplStatser reports replication state for the stats endpoint — the
// replica catch-up loop implements it on follower daemons.
type ReplStatser interface {
	ReplicationStats() wire.ReplicationStats
}

// SetReplica attaches a follower's replication loop so /v1/stats reports
// applied epoch/offset and lag. Call before serving requests.
func (s *Server) SetReplica(rs ReplStatser) { s.repl = rs }

// New returns a server over sys.
func New(sys *core.System) *Server {
	s := &Server{sys: sys, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /v1/images/{name}", s.handleRetrieve)
	s.mux.HandleFunc("POST /v1/images", s.handlePublish)
	s.mux.HandleFunc("DELETE /v1/images/{name}", s.handleRemove)
	s.mux.HandleFunc("POST /v1/assemble", s.handleAssemble)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("POST /v1/sync", s.handleSync)
	s.mux.HandleFunc("POST /v1/compact", s.handleCompact)
	s.mux.HandleFunc("POST /v1/vacuum", s.handleVacuum)
	s.mux.HandleFunc("GET /v1/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("GET /v1/graphs/dot", s.handleDOT)
	s.mux.HandleFunc("GET /v1/repl/commit", s.handleReplCommit)
	s.mux.HandleFunc("GET /v1/repl/snapshot", s.handleReplSnapshot)
	s.mux.HandleFunc("GET /v1/repl/wal", s.handleReplWAL)
	s.mux.HandleFunc("GET /v1/repl/blob/{id}", s.handleReplBlob)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// writeError maps an operation error onto the status and error-kind
// header of its row in wire.ErrorKinds (a plain 500 for an error outside
// the vocabulary). It must only be called before any body bytes were
// written.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	if row, ok := wire.KindOf(err); ok {
		w.Header().Set(wire.HeaderErrorKind, row.Kind)
		status = row.Status
	}
	http.Error(w, err.Error(), status)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// reply settles an operation whose whole answer is one JSON body.
func reply(w http.ResponseWriter, v any, err error) {
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, v)
}

// bodyWriter counts a streamed image body and keeps, for the trailer, the
// digest core gives it. It hashes nothing.
type bodyWriter struct {
	w   io.Writer
	n   int64
	sum *[sha256.Size]byte // nil until core.DigestWriter's SetDigest
}

var _ core.DigestWriter = (*bodyWriter)(nil)

func (bw *bodyWriter) Write(p []byte) (int, error) {
	n, err := bw.w.Write(p)
	bw.n += int64(n)
	return n, err
}

func (bw *bodyWriter) SetDigest(sum [sha256.Size]byte) { bw.sum = &sum }

// streamImage runs produce with the response writer as sink and settles
// the streaming contract: trailers on success, a clean status when the
// operation failed before its first byte, a connection abort when it
// failed with bytes already on the wire or succeeded without a digest.
func streamImage(w http.ResponseWriter, produce func(io.Writer) (*core.RetrieveReport, error)) {
	w.Header().Set("Trailer", wire.HeaderSha256+", "+wire.HeaderBytes+", "+wire.HeaderResult)
	w.Header().Set("Content-Type", "application/octet-stream")
	bw := &bodyWriter{w: w}
	rep, err := produce(bw)
	if err != nil {
		if bw.n == 0 {
			// Nothing sent yet: undo the trailer declaration and fail clean.
			w.Header().Del("Trailer")
			writeError(w, err)
			return
		}
		// Bytes are already on the wire; the only honest signal left is a
		// dead connection, which the chunked framing turns into an
		// unmistakable truncation on the client side.
		panic(http.ErrAbortHandler)
	}
	rb, merr := json.Marshal(rep.Result())
	if merr != nil || bw.sum == nil {
		panic(http.ErrAbortHandler)
	}
	w.Header().Set(wire.HeaderSha256, hex.EncodeToString(bw.sum[:]))
	w.Header().Set(wire.HeaderBytes, strconv.FormatInt(bw.n, 10))
	w.Header().Set(wire.HeaderResult, string(rb))
}

func (s *Server) handleRetrieve(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	streamImage(w, func(sink io.Writer) (*core.RetrieveReport, error) {
		_, rep, err := s.sys.RetrieveTo(sink, name)
		return rep, err
	})
}

func (s *Server) handlePublish(w http.ResponseWriter, r *http.Request) {
	img, meta, section, err := wire.DecodeImage(r.Body)
	if err != nil {
		http.Error(w, fmt.Sprintf("decode image: %v", err), http.StatusBadRequest)
		return
	}
	// PublishWith reads nothing of the image once it has returned, so its
	// chunks go back to the pool for the next upload.
	rep, err := s.sys.PublishWith(img, meta)
	section.Release()
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, rep.Result())
}

func (s *Server) handleRemove(w http.ResponseWriter, r *http.Request) {
	if err := s.sys.Remove(r.PathValue("name")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleAssemble(w http.ResponseWriter, r *http.Request) {
	// The decoder buffers a whole JSON value before anything can validate
	// it, so the body is capped like the publish envelope's header.
	var req wire.AssembleRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, wire.MaxHeaderBytes)).Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, fmt.Sprintf("decode request: %v", err), status)
		return
	}
	streamImage(w, func(sink io.Writer) (*core.RetrieveReport, error) {
		_, rep, err := s.sys.AssembleTo(sink, req.Name, req.Primaries, req.UserDataFrom)
		return rep, err
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	out := s.sys.Stats()
	if s.repl != nil {
		rs := s.repl.ReplicationStats()
		out.Repl = &rs
	}
	writeJSON(w, out)
}

func (s *Server) handleSync(w http.ResponseWriter, r *http.Request) {
	st, err := s.sys.Sync()
	reply(w, st, err)
}

// handleCompact forces compaction of both stores (metadata WAL snapshot
// rewrite, blob segment reclamation) and replies with the same durable-
// save breakdown a sync does.
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	st, err := s.sys.Compact()
	reply(w, st, err)
}

// handleVacuum reclaims dangling repository state (unreferenced
// packages, orphaned archives and lifecycle records, blob orphans) and
// compacts the stores, replying with what the pass removed.
func (s *Server) handleVacuum(w http.ResponseWriter, r *http.Request) {
	st, err := s.sys.Vacuum()
	reply(w, st, err)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	snap, err := s.sys.Snapshot()
	if err != nil {
		writeError(w, err)
		return
	}
	streamVerified(w, io.NopCloser(bytes.NewReader(snap)), int64(len(snap)), nil)
}

func (s *Server) handleDOT(w http.ResponseWriter, r *http.Request) {
	dot, err := s.sys.MasterDOT()
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, dot)
}
