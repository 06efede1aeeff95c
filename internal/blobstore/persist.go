package blobstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
)

var snapshotMagic = []byte("EXPBLB1\n")

// Snapshot serialises b's live blobs and reference counts in the
// deterministic (ID-sorted) EXPBLB1 format, so the image is byte-identical
// whichever backend captured it and Load can always restore it into
// memory. Every blob is read through Open and must hash back to its ID. A
// blob that can no longer be read faithfully (post-hoc disk damage) fails
// the snapshot, with Open's or the read's own error, or with ErrCorrupt
// when the bytes read hash to another ID: skipping the blob would lose
// data, and serialising wrong bytes would strand the metadata saved
// alongside (Load re-derives IDs from content).
//
// The listing, the counts and the contents are read one call at a time, so
// the caller stops mutations for the duration: a concurrent put is
// harmless, but a concurrent release can fail the snapshot or record a
// stale count.
func Snapshot(b Backend) ([]byte, error) {
	ids := b.IDs()
	var buf bytes.Buffer
	buf.Write(snapshotMagic)
	putUvarint(&buf, uint64(len(ids)))
	for _, id := range ids {
		putUvarint(&buf, uint64(b.Refs(id)))
		if err := appendBlob(&buf, b, id); err != nil {
			return nil, fmt.Errorf("blobstore: snapshot read %s: %w", id, err)
		}
	}
	return buf.Bytes(), nil
}

// appendBlob writes one blob's length and verified contents to buf.
func appendBlob(buf *bytes.Buffer, b Backend, id ID) error {
	rc, size, err := b.Open(id)
	if err != nil {
		return err
	}
	defer rc.Close()
	putUvarint(buf, uint64(size))
	h := sha256.New()
	n, err := io.Copy(io.MultiWriter(buf, h), rc)
	if err != nil {
		return err
	}
	if n != size || ID(h.Sum(nil)) != id {
		return fmt.Errorf("stored bytes no longer hash to the blob's ID: %w", ErrCorrupt)
	}
	return nil
}

func putUvarint(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	buf.Write(tmp[:binary.PutUvarint(tmp[:], v)])
}

// Load restores a store from a Snapshot image. Blob IDs are recomputed
// from content and verified implicitly by the addressing scheme.
func Load(image []byte) (*Store, error) {
	r := bytes.NewReader(image)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(r, magic); err != nil || !bytes.Equal(magic, snapshotMagic) {
		return nil, fmt.Errorf("blobstore: bad snapshot magic")
	}
	count, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("blobstore: corrupt snapshot: %w", err)
	}
	s := New()
	for i := uint64(0); i < count; i++ {
		refs, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("blobstore: corrupt refcount: %w", err)
		}
		if refs == 0 {
			return nil, fmt.Errorf("blobstore: snapshot contains dead blob")
		}
		n, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("blobstore: corrupt length: %w", err)
		}
		if n > uint64(r.Len()) {
			return nil, fmt.Errorf("blobstore: blob length %d exceeds remaining %d", n, r.Len())
		}
		data := make([]byte, n)
		if n > 0 {
			if _, err := io.ReadFull(r, data); err != nil {
				return nil, err
			}
		}
		id := Sum(data)
		s.shardFor(id).blobs[id] = &entry{data: data, refs: int(refs)}
		s.bytes.Add(int64(len(data)))
	}
	return s, nil
}
