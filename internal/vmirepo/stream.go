// Streaming access to repository blobs. The Open* getters hand out
// readers served natively by the blob backend — zero-copy views for the
// memory store, segment-offset section readers for the disk store — so a
// caller can consume a gigabyte base image without the repository ever
// materializing it. The legacy Get* getters are thin adapters over these.
//
// Cost model: the full modeled read cost is charged at open, exactly what
// the materializing getters charge, because the paper's model prices the
// repository read itself, not the caller's consumption pattern. A caller
// that opens and reads half a blob still caused the repository retrieval.
package vmirepo

import (
	"fmt"
	"io"

	"expelliarmus/internal/blobstore"
	"expelliarmus/internal/pkgmeta"
	"expelliarmus/internal/simio"
)

// OpenBase returns a streaming reader over a stored base image blob and
// its size. The returned reader also implements io.ReaderAt (every
// backend guarantees it) and stays readable until it is closed, even if
// the base is released meanwhile: on the disk backend an open reader pins
// its segment against compaction, so callers reading lazily must keep it
// open for as long as they read and close it after.
func (r *Repo) OpenBase(id string, ph simio.Phase, m *simio.Meter) (io.ReadCloser, int64, error) {
	val, ok := r.meta().Bucket(bucketBases).Get([]byte(id))
	r.chargeDB(m, 0)
	if !ok {
		return nil, 0, fmt.Errorf("vmirepo: base %s %w", id, ErrNotFound)
	}
	rec, err := decodeBaseRecord(id, val)
	if err != nil {
		return nil, 0, err
	}
	rc, size, err := r.blobs.Open(rec.BlobID)
	if err != nil {
		return nil, 0, fmt.Errorf("vmirepo: base %s: %w", id, err)
	}
	if m != nil {
		m.Charge(ph, r.dev.ReadCost(size))
	}
	return rc, size, nil
}

// OpenPackage returns a package's metadata plus a streaming reader over
// its payload blob and the payload size.
func (r *Repo) OpenPackage(ref string, ph simio.Phase, m *simio.Meter) (pkgmeta.Package, io.ReadCloser, int64, error) {
	val, ok := r.meta().Bucket(bucketPackages).Get([]byte(ref))
	r.chargeDB(m, 0)
	if !ok {
		return pkgmeta.Package{}, nil, 0, fmt.Errorf("vmirepo: package %s %w", ref, ErrNotFound)
	}
	rec, err := decodePackageRecord(val)
	if err != nil {
		return pkgmeta.Package{}, nil, 0, err
	}
	rc, size, err := r.blobs.Open(rec.BlobID)
	if err != nil {
		return pkgmeta.Package{}, nil, 0, fmt.Errorf("vmirepo: package %s: %w", ref, err)
	}
	if m != nil {
		m.Charge(ph, r.dev.ReadCost(size))
	}
	return rec.Pkg, rc, size, nil
}

// OpenUserData returns a streaming reader over a VMI's user-data archive,
// or a nil reader (with nil error) when none is stored — mirroring
// GetUserData's absent case. Callers MUST check the reader against nil
// before the error: a VMI published without user data is the common case,
// not a failure, and dereferencing the nil reader is the classic bug here
// (pinned by the no-user-data wire regression test in internal/server).
func (r *Repo) OpenUserData(name string, ph simio.Phase, m *simio.Meter) (io.ReadCloser, int64, error) {
	val, ok := r.meta().Bucket(bucketUserData).Get([]byte(name))
	r.chargeDB(m, 0)
	if !ok {
		return nil, 0, nil
	}
	var id blobstore.ID
	copy(id[:], val)
	rc, size, err := r.blobs.Open(id)
	if err != nil {
		return nil, 0, fmt.Errorf("vmirepo: user data for %q: %w", name, err)
	}
	if m != nil {
		m.Charge(ph, r.dev.ReadCost(size))
	}
	return rc, size, nil
}

// readAll drains a just-opened blob reader into an owned buffer; the
// shared tail of the materializing Get* adapters.
func readAll(rc io.ReadCloser, size int64, what string) ([]byte, error) {
	defer rc.Close()
	buf := make([]byte, size)
	if _, err := io.ReadFull(rc, buf); err != nil {
		return nil, fmt.Errorf("vmirepo: read %s: %w", what, err)
	}
	return buf, nil
}
