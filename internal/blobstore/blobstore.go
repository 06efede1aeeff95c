// Package blobstore implements a content-addressed, reference-counted blob
// store. It is the storage backend shared by every deduplicating scheme in
// this repository: Mirage and Hemera store file contents in it, the
// block-dedup baselines store chunks, and the Expelliarmus repository stores
// binary packages, base images and user-data archives.
//
// Blobs are addressed by their SHA-256 digest, so the store physically keeps
// at most one copy of any byte sequence — the "content level" deduplication
// the paper contrasts with its semantic approach. Reference counting lets a
// scheme release content (e.g. when Expelliarmus replaces an obsolete base
// image, Algorithm 1 lines 22–28) and reclaim space deterministically.
//
// The store is mutex-striped: blobs live in shards keyed by the leading
// byte of their content hash, so concurrent publishes writing different
// packages lock different shards and proceed in parallel. SHA-256 output is
// uniform, which makes the leading byte an ideal shard key. Aggregate
// counters (unique bytes, put/hit statistics) are atomics, so size queries
// never touch a shard lock.
package blobstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"expelliarmus/internal/chunkpool"
)

// ID is the SHA-256 digest addressing a blob.
type ID [sha256.Size]byte

// Sum returns the ID of data.
func Sum(data []byte) ID { return sha256.Sum256(data) }

// String renders the ID as lowercase hex.
func (id ID) String() string { return hex.EncodeToString(id[:]) }

// ParseID decodes a 64-character hex digest.
func ParseID(s string) (ID, error) {
	var id ID
	b, err := hex.DecodeString(s)
	if err != nil {
		return id, fmt.Errorf("blobstore: parse id: %w", err)
	}
	if len(b) != sha256.Size {
		return id, fmt.Errorf("blobstore: parse id: got %d bytes, want %d", len(b), sha256.Size)
	}
	copy(id[:], b)
	return id, nil
}

type entry struct {
	data []byte
	refs int
}

// numShards is the lock-stripe count. A power of two so the shard index is
// a mask of the hash's leading byte; 64 stripes keep contention negligible
// for any realistic publish fan-out while costing ~6 KB per store.
const numShards = 64

type shard struct {
	mu    sync.RWMutex
	blobs map[ID]*entry
}

// Store is a content-addressed blob store. It is safe for concurrent use;
// operations on blobs whose IDs fall into different shards do not contend.
// The zero value is not usable; construct with New.
type Store struct {
	shards [numShards]shard
	bytes  atomic.Int64
	puts   atomic.Int64
	hits   atomic.Int64
}

// New returns an empty store.
func New() *Store {
	s := &Store{}
	for i := range s.shards {
		s.shards[i].blobs = make(map[ID]*entry)
	}
	return s
}

func (s *Store) shardFor(id ID) *shard {
	return &s.shards[id[0]&(numShards-1)]
}

// Put stores data (if not already present) and takes one reference on it.
// It returns the blob ID and whether the content was newly stored. The
// caller keeps ownership of data; it is copied, never aliased. Put is a
// thin adapter over PutReader (in-memory sources can never fail, so the
// error leg vanishes).
func (s *Store) Put(data []byte) (ID, bool) {
	id, _, stored, _ := s.PutReader(bytes.NewReader(data))
	return id, stored
}

// PutReader streams r into the store, hashing incrementally, and takes one
// reference on the resulting blob. The bytes read from r become the
// store's private copy, so the contents can never alias caller memory. If
// r fails mid-stream the store is unchanged and the error is returned.
func (s *Store) PutReader(r io.Reader) (ID, int64, bool, error) {
	h := sha256.New()
	var buf bytes.Buffer
	n, err := chunkpool.Copy(io.MultiWriter(&buf, h), r)
	if err != nil {
		return ID{}, n, false, fmt.Errorf("blobstore: put stream: %w", err)
	}
	var id ID
	h.Sum(id[:0])
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s.puts.Add(1)
	if e, ok := sh.blobs[id]; ok {
		e.refs++
		s.hits.Add(1)
		return id, n, false, nil
	}
	sh.blobs[id] = &entry{data: buf.Bytes(), refs: 1}
	s.bytes.Add(n)
	return id, n, true, nil
}

// Get returns a copy of the blob's contents; the caller owns the result
// and may mutate it without affecting the store. Get is a thin adapter
// over Open.
func (s *Store) Get(id ID) ([]byte, bool) {
	rc, size, err := s.Open(id)
	if err != nil {
		return nil, false
	}
	defer rc.Close()
	out := make([]byte, size)
	if _, err := io.ReadFull(rc, out); err != nil {
		return nil, false
	}
	return out, true
}

// memReader is a zero-copy view over a stored blob. The underlying slice
// is immutable (PutReader builds it privately, Get hands out copies), so
// the view stays valid even after the blob is released.
type memReader struct{ *bytes.Reader }

func (memReader) Close() error { return nil }

// Open returns a zero-copy reader over the blob's immutable stored bytes
// and its size. The reader also implements io.ReaderAt. An absent blob
// reports ErrNotFound; the in-memory store has no corruption failure mode
// (its bytes are private and immutable), so that is its only error.
func (s *Store) Open(id ID) (io.ReadCloser, int64, error) {
	sh := s.shardFor(id)
	sh.mu.RLock()
	e, ok := sh.blobs[id]
	sh.mu.RUnlock()
	if !ok {
		return nil, 0, fmt.Errorf("blobstore: open %s: %w", id, ErrNotFound)
	}
	return memReader{bytes.NewReader(e.data)}, int64(len(e.data)), nil
}

// Size returns the length of the blob without copying it.
func (s *Store) Size(id ID) (int64, bool) {
	sh := s.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e, ok := sh.blobs[id]
	if !ok {
		return 0, false
	}
	return int64(len(e.data)), true
}

// Has reports whether the blob exists.
func (s *Store) Has(id ID) bool {
	sh := s.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	_, ok := sh.blobs[id]
	return ok
}

// AddRef takes an additional reference on an existing blob.
func (s *Store) AddRef(id ID) error {
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.blobs[id]
	if !ok {
		return fmt.Errorf("blobstore: addref %s: not found", id)
	}
	e.refs++
	return nil
}

// Refs returns the current reference count, or zero if absent.
func (s *Store) Refs(id ID) int {
	sh := s.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if e, ok := sh.blobs[id]; ok {
		return e.refs
	}
	return 0
}

// Release drops one reference; when the count reaches zero the blob is
// deleted and its bytes reclaimed.
func (s *Store) Release(id ID) error {
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.blobs[id]
	if !ok {
		return fmt.Errorf("blobstore: release %s: not found", id)
	}
	e.refs--
	if e.refs < 0 {
		return fmt.Errorf("blobstore: release %s: refcount underflow", id)
	}
	if e.refs == 0 {
		s.bytes.Add(-int64(len(e.data)))
		delete(sh.blobs, id)
	}
	return nil
}

// Len returns the number of distinct blobs stored.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.blobs)
		sh.mu.RUnlock()
	}
	return n
}

// TotalBytes returns the number of unique bytes physically stored — the
// quantity plotted on the y-axis of Fig. 3.
func (s *Store) TotalBytes() int64 { return s.bytes.Load() }

// Stats reports cumulative put and dedup-hit counts.
func (s *Store) Stats() (puts, hits int64) {
	return s.puts.Load(), s.hits.Load()
}

// The in-memory store holds nothing outside process memory and frees a
// blob's bytes the moment its last reference is released, so the
// durability and reclamation half of the Backend contract is trivial:
// there is never anything to flush, close, report or compact.

func (s *Store) SyncData() (SyncStats, error)   { return SyncStats{}, nil }
func (s *Store) Sync() (SyncStats, error)       { return SyncStats{}, nil }
func (s *Store) Close() error                   { return nil }
func (s *Store) Err() error                     { return nil }
func (s *Store) Compact() (CompactStats, error) { return CompactStats{}, nil }
func (s *Store) DiskStats() DiskStats           { return DiskStats{LiveBytes: s.TotalBytes()} }

// IDs returns all blob IDs in lexicographic order (deterministic).
func (s *Store) IDs() []ID {
	out := make([]ID, 0, s.Len())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for id := range sh.blobs {
			out = append(out, id)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool {
		return string(out[i][:]) < string(out[j][:])
	})
	return out
}
