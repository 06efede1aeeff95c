package core

import (
	"crypto/sha256"
	"errors"
	"hash"
	"hash/crc32"
	"io"

	"expelliarmus/internal/retrievecache"
)

// DigestWriter is a sink that owes its reader the SHA-256 of what it was
// written: the HTTP server's response writer, which sends it as the digest
// trailer. Core calls SetDigest exactly once, after the last byte of an
// operation that succeeded, with the SHA-256 of every byte the operation
// wrote. An image served from a cache entry gets the digest the entry took
// at construction (retrievecache.Entry.Digest), a streamed retrieval's comes
// from the digest memo, an assembly's is hashed as it streams. Core hashes
// nothing for a sink that is not a DigestWriter.
type DigestWriter interface {
	io.Writer
	SetDigest(sum [sha256.Size]byte)
}

// memoSlots sizes the digest memo: a retrieval key whose slot another key
// took is hashed again on its next retrieval.
const memoSlots = 1024

// digestMemo remembers, per retrieval key, the retrievecache.Digest of the
// image a retrieval streamed straight to a DigestWriter. A key names
// one committed state (its sources are opened under the view lock the key
// was taken under) and assembly is deterministic, so every retrieval of the
// key writes the same bytes: a repeat tees only a CRC-32C and sends the
// memo's SHA-256. A repeat whose CRC-32C or length differs clears the slot
// and fails, so the server aborts instead of vouching for bytes nobody
// hashed, and the next retrieval hashes again.
type digestMemo = slotMemo[retrievecache.Key, retrievecache.Digest]

// digestTo returns the writer an assembly streams to w through. For a
// DigestWriter it is a digestTee, which assemble settles after the last
// byte; key is nil for an assembly no memo covers (AssembleTo), which is
// hashed inline every time.
func (s *System) digestTo(w io.Writer, key *retrievecache.Key) io.Writer {
	dw, ok := w.(DigestWriter)
	if !ok {
		return w
	}
	t := &digestTee{w: dw}
	if key != nil {
		t.memo, t.key = s.memo, *key
		t.hit = t.memo.get(*key)
	}
	if t.hit == nil {
		t.sha = sha256.New()
	}
	return t
}

// digestTee counts and checksums what it passes on: a SHA-256 on a memo
// miss, a CRC-32C whenever a memo covers the key.
type digestTee struct {
	w    DigestWriter
	memo *digestMemo // nil when no memo covers the assembly
	key  retrievecache.Key
	hit  *memoEntry[retrievecache.Key, retrievecache.Digest] // the memo's record of key, nil on a miss
	sha  hash.Hash                                           // nil on a hit
	got  retrievecache.Digest                                // CRC and N of what passed, Sum once settled
}

func (t *digestTee) Write(p []byte) (int, error) {
	n, err := t.w.Write(p)
	if t.sha != nil {
		t.sha.Write(p[:n])
	}
	if t.memo != nil {
		t.got.CRC = crc32.Update(t.got.CRC, retrievecache.Castagnoli, p[:n])
	}
	t.got.N += int64(n)
	return n, err
}

// settle hands the sink the digest of a complete image: the memo's on a hit
// the CRC-32C and length confirm, else the inline SHA-256, which a miss
// records in the memo.
func (t *digestTee) settle() error {
	if t.hit != nil {
		if t.got.CRC != t.hit.val.CRC || t.got.N != t.hit.val.N {
			t.memo.slot(t.key).CompareAndSwap(t.hit, nil)
			return errors.New("streamed bytes do not match the image's memoized digest")
		}
		t.w.SetDigest(t.hit.val.Sum)
		return nil
	}
	t.sha.Sum(t.got.Sum[:0])
	if t.memo != nil {
		t.memo.put(t.key, t.got)
	}
	t.w.SetDigest(t.got.Sum)
	return nil
}
