package wire

import (
	"errors"
	"net/http"

	"expelliarmus/internal/api"
)

// Header and trailer names of the streaming protocol.
const (
	HeaderSha256    = "X-Expel-Sha256"
	HeaderBytes     = "X-Expel-Bytes"
	HeaderResult    = "X-Expel-Result"
	HeaderErrorKind = "X-Expel-Error-Kind"
	// HeaderEpoch carries the snapshot/WAL epoch of a replication stream.
	HeaderEpoch = "X-Expel-Epoch"
	// HeaderSize declares a replication stream's exact byte length up
	// front (HeaderBytes arrives only in the trailers, after the body), so
	// a follower can size its buffer once and consume the stream without
	// growing an intermediate copy.
	HeaderSize = "X-Expel-Size"
)

// Error kinds carried in HeaderErrorKind.
const (
	KindNotFound = "not-found"
	KindCorrupt  = "corrupt"
	// KindReadOnly marks a mutating request refused by a follower daemon.
	KindReadOnly = "read-only"
	// KindEpochGone marks a WAL tail request for an epoch the writer's
	// compaction has retired — the follower must restart from the current
	// snapshot.
	KindEpochGone = "epoch-gone"
	// KindQuotaExceeded marks a publish rejected because it would push its
	// tenant past the configured quota.
	KindQuotaExceeded = "quota-exceeded"
	// KindPrimaryNotInstalled marks a publish whose primaries list names
	// a package the uploaded image does not have installed.
	KindPrimaryNotInstalled = "primary-not-installed"
)

// ErrorKind is one row of the error vocabulary: the sentinel an operation
// error unwraps to in process, the kind string that names it in
// HeaderErrorKind, and the HTTP status the server replies with.
type ErrorKind struct {
	Kind   string
	Err    error
	Status int
}

// ErrorKinds is the whole vocabulary, and its only spelling: the server
// maps an error to the first row whose sentinel it wraps (KindOf), the
// client maps a reply's kind back to the first row carrying it
// (KindNamed), so remote callers route absence, corruption, read-only
// refusals, retired epochs, quota rejections and uninstalled primaries
// exactly like in-process ones. A new kind is one new row.
var ErrorKinds = []ErrorKind{
	{KindNotFound, api.ErrNotFound, http.StatusNotFound},
	{KindNotFound, api.ErrBlobNotFound, http.StatusNotFound},
	{KindCorrupt, api.ErrBlobCorrupt, http.StatusInternalServerError},
	{KindReadOnly, api.ErrReadOnly, http.StatusForbidden},
	{KindEpochGone, api.ErrEpochGone, http.StatusGone},
	{KindQuotaExceeded, api.ErrQuotaExceeded, http.StatusRequestEntityTooLarge},
	{KindPrimaryNotInstalled, api.ErrPrimaryNotInstalled, http.StatusBadRequest},
}

// KindOf returns the row err belongs to; ok is false for an error outside
// the vocabulary (a plain 500 on the wire).
func KindOf(err error) (row ErrorKind, ok bool) {
	for _, row := range ErrorKinds {
		if errors.Is(err, row.Err) {
			return row, true
		}
	}
	return ErrorKind{}, false
}

// KindNamed returns the row a reply's kind string resurfaces as.
func KindNamed(kind string) (row ErrorKind, ok bool) {
	for _, row := range ErrorKinds {
		if row.Kind == kind {
			return row, true
		}
	}
	return ErrorKind{}, false
}
