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
// at construction (retrievecache.Entry.Digest); a streamed retrieval's or
// assembly's comes from the digest memo, or is hashed as it streams when
// the memo does not know its recipe. Core hashes nothing for a sink that
// is not a DigestWriter.
type DigestWriter interface {
	io.Writer
	SetDigest(sum [sha256.Size]byte)
}

// memoSlots sizes the digest memo: a recipe whose slot another recipe took
// is hashed again on its next assembly.
const memoSlots = 1024

// recipe names what an assembly is made of: the SHA-256 of its base blob
// ID, its user-data blob ID (zero for none) and its install order as
// (package name, blob ID) pairs. Assembly is deterministic in those: base
// and package memo hits match misses, and the image name never reaches the
// bytes. So equal recipes mean equal image bytes, across generations and
// across VMI names. The digest memo vouches for bytes by their recipe,
// which is why it is a cryptographic hash.
type recipe [sha256.Size]byte

// recipe returns the recipe of the assembly src opens.
func (src *sources) recipe() recipe {
	buf := make([]byte, 0, 2*sha256.Size+len(src.pkgs)*(sha256.Size+32))
	buf = append(append(buf, src.base.id[:]...), src.userData.id[:]...)
	i := 0
	for _, group := range src.order {
		for _, name := range group {
			buf = append(append(append(buf, name...), 0), src.pkgs[i].id[:]...)
			i++
		}
	}
	return sha256.Sum256(buf)
}

// digestMemo remembers, per recipe, the retrievecache.Digest of the image
// an assembly of it wrote. Every assembly that owes a digest (a streamed
// retrieval or assembly into a DigestWriter, a cache-miss leader building
// an entry) looks its recipe up: a repeat tees only a CRC-32C and takes
// the memo's SHA-256, whatever generation or VMI name it was asked for. A
// repeat whose CRC-32C or length differs means a non-deterministic
// assembly or damaged bytes: it clears the slot and fails, so the server
// aborts instead of vouching for bytes nobody hashed, nothing is cached,
// and the next assembly hashes again.
type digestMemo = slotMemo[recipe, retrievecache.Digest]

// digestTo returns the writer an assembly of src streams to w through: for
// a DigestWriter, a tee that assemble settles after the last byte.
func (s *System) digestTo(w io.Writer, src *sources) io.Writer {
	if _, ok := w.(DigestWriter); !ok {
		return w
	}
	return s.tee(w, src)
}

// tee returns a digestTee of an assembly of src into w.
func (s *System) tee(w io.Writer, src *sources) *digestTee {
	t := &digestTee{w: w, memo: s.memo, recipe: src.recipe()}
	if t.hit = t.memo.get(t.recipe); t.hit == nil {
		t.sha = sha256.New()
	}
	return t
}

// digestTee counts and checksums what it passes on: a CRC-32C always, and
// a SHA-256 when the memo did not know the recipe.
type digestTee struct {
	w      io.Writer
	memo   *digestMemo
	recipe recipe
	hit    *memoEntry[recipe, retrievecache.Digest] // the memo's record of recipe, nil on a miss
	sha    hash.Hash                                // nil on a hit
	got    retrievecache.Digest                     // CRC and N of what passed, Sum once settled
}

func (t *digestTee) Write(p []byte) (int, error) {
	n, err := t.w.Write(p)
	if t.sha != nil {
		t.sha.Write(p[:n])
	}
	t.got.CRC = crc32.Update(t.got.CRC, retrievecache.Castagnoli, p[:n])
	t.got.N += int64(n)
	return n, err
}

// settle completes the digest of a whole image: the memo's SHA-256 on a
// hit the CRC-32C and length confirm, else the inline one, which a miss
// records in the memo. A DigestWriter is handed it.
func (t *digestTee) settle() error {
	if t.hit != nil {
		if t.got.CRC != t.hit.val.CRC || t.got.N != t.hit.val.N {
			t.memo.slot(t.recipe).CompareAndSwap(t.hit, nil)
			return errors.New("assembled bytes do not match the recipe's memoized digest")
		}
		t.got = t.hit.val
	} else {
		t.sha.Sum(t.got.Sum[:0])
		t.memo.put(t.recipe, t.got)
	}
	if dw, ok := t.w.(DigestWriter); ok {
		dw.SetDigest(t.got.Sum)
	}
	return nil
}
