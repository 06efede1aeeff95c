// Streaming access to repository blobs. The Open* getters hand out
// readers served natively by the blob backend — zero-copy views for the
// memory store, segment-offset section readers for the disk store — so a
// caller can consume a gigabyte base image without the repository ever
// materializing it.
//
// Cost model: the full modeled read cost is charged at open, because the
// paper's model prices the repository read itself, not the caller's
// consumption pattern. A caller that opens and reads half a blob still
// caused the repository retrieval.
package vmirepo

import (
	"fmt"
	"io"

	"expelliarmus/internal/blobstore"
	"expelliarmus/internal/simio"
)

// OpenBase returns the blob ID of a stored base image, a streaming reader
// over the blob and its size. The blob ID names the base's content (a
// replaced base has a new one), so a caller may key what it derives from
// the bytes by it. The returned reader also implements io.ReaderAt (every
// backend guarantees it) and stays readable until it is closed, even if
// the base is released meanwhile: on the disk backend an open reader pins
// its segment against compaction, so callers reading lazily must keep it
// open for as long as they read and close it after.
func (r *Repo) OpenBase(id string, ph simio.Phase, m *simio.Meter) (blobstore.ID, io.ReadCloser, int64, error) {
	val, ok := r.meta().Bucket(bucketBases).Get([]byte(id))
	r.chargeDB(m, 0)
	if !ok {
		return blobstore.ID{}, nil, 0, fmt.Errorf("vmirepo: base %s %w", id, ErrNotFound)
	}
	rec, err := decodeBaseRecord(id, val)
	if err != nil {
		return blobstore.ID{}, nil, 0, err
	}
	rc, size, err := r.blobs.Open(rec.BlobID)
	if err != nil {
		return blobstore.ID{}, nil, 0, fmt.Errorf("vmirepo: base %s: %w", id, err)
	}
	if m != nil {
		m.Charge(ph, r.dev.ReadCost(size))
	}
	return rec.BlobID, rc, size, nil
}

// OpenPackage returns a package's decoded record plus a streaming reader
// over its payload blob and the payload size. The record's BlobID names
// the payload's content (a package replaced under its ref has a new one),
// so a caller may key what it derives from the bytes by it.
func (r *Repo) OpenPackage(ref string, ph simio.Phase, m *simio.Meter) (PackageRecord, io.ReadCloser, int64, error) {
	val, ok := r.meta().Bucket(bucketPackages).Get([]byte(ref))
	r.chargeDB(m, 0)
	if !ok {
		return PackageRecord{}, nil, 0, fmt.Errorf("vmirepo: package %s %w", ref, ErrNotFound)
	}
	rec, err := decodePackageRecord(val)
	if err != nil {
		return PackageRecord{}, nil, 0, err
	}
	rc, size, err := r.blobs.Open(rec.BlobID)
	if err != nil {
		return PackageRecord{}, nil, 0, fmt.Errorf("vmirepo: package %s: %w", ref, err)
	}
	if m != nil {
		m.Charge(ph, r.dev.ReadCost(size))
	}
	return rec, rc, size, nil
}

// OpenUserData returns the blob ID of a VMI's user-data archive and a
// streaming reader over it, or a zero ID and a nil reader (with nil error)
// when none is stored. Like a base's, the ID names the archive's content.
// Callers MUST check the reader against nil
// before the error: a VMI published without user data is the common case,
// not a failure, and dereferencing the nil reader is the classic bug here
// (pinned by the no-user-data wire regression test in internal/server).
func (r *Repo) OpenUserData(name string, ph simio.Phase, m *simio.Meter) (blobstore.ID, io.ReadCloser, int64, error) {
	var id blobstore.ID
	val, ok := r.meta().Bucket(bucketUserData).Get([]byte(name))
	r.chargeDB(m, 0)
	if !ok {
		return id, nil, 0, nil
	}
	copy(id[:], val)
	rc, size, err := r.blobs.Open(id)
	if err != nil {
		return blobstore.ID{}, nil, 0, fmt.Errorf("vmirepo: user data for %q: %w", name, err)
	}
	if m != nil {
		m.Charge(ph, r.dev.ReadCost(size))
	}
	return id, rc, size, nil
}
