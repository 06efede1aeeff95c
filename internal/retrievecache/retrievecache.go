// Package retrievecache implements the repository's retrieval cache: a
// size-bounded, concurrency-safe LRU of assembled VMI images. Retrieval
// (Algorithm 3) memoizes only its inputs: the reset base once per base blob
// and each package once decoded, per blob. Every request still installs the
// packages into a clone of the base and serializes the disk, and related
// work on VM image distribution identifies repeat instantiation of popular
// images as the dominant cost in real clouds — so the cache keeps the
// serialized form of recently assembled images and serves repeats without
// touching the assembler.
//
// Correctness is invalidation-shaped. A cache key is the quadruple
// (base image, sorted primary-package set, user-data source, repository
// generation); the generation is the combined striped counter the
// repository bumps after every metadata write touching the key's base
// image or VMI name (publish commits, removals, user-data replacement — see
// vmirepo.GenerationFor), so any relevant change moves subsequent lookups
// to fresh keys and makes the previously cached entries for that base
// unreachable, while mutations scoped to other stripes leave them
// servable.
//
// An entry's serialized image is digested once, at construction, into a
// Digest: SHA-256, CRC-32C and length. NewEntry hashes the image;
// NewEntryWithDigest takes a digest its caller already holds (core's
// digest memo, keyed by what the image was assembled from, knows it for an
// image hashed before under an earlier generation). The SHA-256 is the
// entry's end-to-end digest: a server sends it as the response's digest
// trailer instead of hashing the body again, and the client's check of
// that trailer is the one cryptographic pass over a served hit. The CRC-32C is
// re-verified on every hit, at a small fraction of SHA-256's cost: a
// poisoned entry (bit rot, an aliasing bug, a caller scribbling on shared
// bytes) surfaces as ErrPoisoned instead of wrong image bytes. Put hashes
// nothing.
//
// The cache is transparent at the cost-model level: an entry carries the
// full retrieval report of the assembly that produced it (imported
// packages and the per-phase meter decomposition), so a hit replays the
// exact modeled charges a cold retrieval would have accumulated. Hits and
// misses differ in wall-clock time only — the property TestConformance
// pins down.
package retrievecache

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"strings"
	"sync"
	"time"

	"expelliarmus/internal/pkgmeta"
	"expelliarmus/internal/simio"
)

// ErrPoisoned marks a cache hit whose stored image bytes no longer match
// the checksum its entry was built with. Served bytes would be wrong, so
// the entry is evicted and the error surfaces to the caller.
var ErrPoisoned = errors.New("retrievecache: cached image failed content verification")

// Key identifies one cacheable assembly. Two retrievals share an entry
// exactly when they assemble the same primary set on the same base image
// with the same user data against the same repository generation.
type Key struct {
	// BaseID is the base image the assembly clusters on.
	BaseID string
	// Primaries is the sorted primary-package set, NUL-joined so the key
	// is comparable; build keys with NewKey to get the normalisation.
	Primaries string
	// UserData names the VMI whose user-data archive the assembly imports
	// ("" when none) — two VMIs with identical base and primaries but
	// different user data must never share an entry.
	UserData string
	// Generation is the striped repository generation the assembly ran
	// against (see vmirepo.GenerationFor, summed over the stripes of the
	// base image and the VMI name). Any mutation relevant to those keys
	// bumps it, which is the cache's whole invalidation story: stale
	// entries are not found.
	Generation uint64
}

// NewKey builds a Key, normalising the primary set by sorting a copy.
func NewKey(baseID string, primaries []string, userData string, generation uint64) Key {
	ps := append([]string(nil), primaries...)
	sort.Strings(ps)
	return Key{
		BaseID:     baseID,
		Primaries:  strings.Join(ps, "\x00"),
		UserData:   userData,
		Generation: generation,
	}
}

// Digest is what one image hashes to: its SHA-256, its CRC-32C (Castagnoli)
// and its length. It is the one shape an image's integrity facts take, on
// a cache entry and in core's digest memo alike.
type Digest struct {
	Sum [sha256.Size]byte
	CRC uint32
	N   int64
}

// Castagnoli is the CRC-32C table: hardware-accelerated on amd64 and
// arm64, so a hit's verification costs a small fraction of a SHA-256 pass.
var Castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Entry is one cached assembly: the serialized image plus everything
// needed to replay the cold retrieval's report. Entries handed to Put are
// owned by the cache; entries returned by Get are shared — callers must
// treat every field as read-only and copy what they keep.
type Entry struct {
	// Image is the serialized (qcow2-like) assembled image. Every hit
	// re-verifies it against the CRC-32C of its digest.
	Image []byte
	// Base is the base-attribute quadruple of the assembled image.
	Base pkgmeta.BaseAttrs
	// Imported lists the packages the assembly installed, in install
	// order; ImportedBytes is their total installed size.
	Imported      []string
	ImportedBytes int64
	// Phases is the cold retrieval's full per-phase cost decomposition. A
	// hit charges these into a fresh meter, so hit and miss reports are
	// byte-identical — the cache never changes modeled semantics.
	Phases map[simio.Phase]time.Duration

	digest Digest // of Image, taken or given at construction
}

// Digest returns the digest of the entry's image, taken or given when it
// was built — whether or not the entry was ever Put.
func (e *Entry) Digest() Digest { return e.digest }

// NewEntry builds an entry and digests its image: NewEntryWithDigest with
// the image's SHA-256, CRC-32C and length, taken here.
func NewEntry(image []byte, base pkgmeta.BaseAttrs, imported []string, importedBytes int64, phases map[simio.Phase]time.Duration) *Entry {
	return NewEntryWithDigest(image, Digest{sha256.Sum256(image), crc32.Checksum(image, Castagnoli), int64(len(image))}, base, imported, importedBytes, phases)
}

// NewEntryWithDigest builds an entry whose image has the digest d, copying
// the imported list and phase map (the image bytes are taken over as-is;
// callers hand over ownership, so the digest guards them from here on). It
// hashes nothing: the caller vouches for d. Every hit re-verifies its
// CRC-32C, and the SHA-256 is what a server sends as the entry's digest.
func NewEntryWithDigest(image []byte, d Digest, base pkgmeta.BaseAttrs, imported []string, importedBytes int64, phases map[simio.Phase]time.Duration) *Entry {
	ph := make(map[simio.Phase]time.Duration, len(phases))
	for p, dur := range phases {
		ph[p] = dur
	}
	return &Entry{
		Image:         image,
		Base:          base,
		Imported:      append([]string(nil), imported...),
		ImportedBytes: importedBytes,
		Phases:        ph,
		digest:        d,
	}
}

// entryOverhead approximates the per-entry bookkeeping bytes (list node,
// map slot, struct headers) charged against the byte budget on top of the
// payload, so a cache full of tiny entries cannot balloon unaccounted.
const entryOverhead = 256

// cost is the bytes an entry for key, with an image of imageBytes and the
// imported list, charges against the budget.
func cost(key Key, imageBytes int64, imported []string) int64 {
	c := imageBytes + int64(entryOverhead+len(key.BaseID)+len(key.Primaries)+len(key.UserData))
	for _, p := range imported {
		c += int64(len(p))
	}
	return c
}

// Stats reports cache effectiveness and accounting.
type Stats struct {
	// Hits and Misses count Get outcomes; Puts counts successful
	// insertions (including replacements of an existing key).
	Hits, Misses, Puts int64
	// Evictions counts entries dropped by the LRU to fit the byte budget;
	// Rejected counts entries that alone exceed it, refused by Admit or Put.
	Evictions, Rejected int64
	// Poisoned counts hits whose image bytes failed checksum verification
	// (the entry is evicted and ErrPoisoned returned).
	Poisoned int64
	// Entries and Bytes describe current occupancy; MaxBytes the budget.
	Entries  int
	Bytes    int64
	MaxBytes int64
}

// node is one LRU element; the doubly linked list is ordered most- to
// least-recently used.
type node struct {
	key        Key
	entry      *Entry
	cost       int64
	prev, next *node
}

// Cache is the retrieval cache. All methods are safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	items    map[Key]*node
	head     *node // most recently used
	tail     *node // least recently used
	bytes    int64

	hits, misses, puts, evictions, rejected, poisoned int64
}

// New returns an empty cache bounded to maxBytes of accounted entry cost.
func New(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		panic(fmt.Sprintf("retrievecache: non-positive byte budget %d", maxBytes))
	}
	return &Cache{maxBytes: maxBytes, items: make(map[Key]*node)}
}

// unlink removes n from the LRU list. Caller holds mu.
func (c *Cache) unlink(n *node) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

// pushFront makes n the most recently used. Caller holds mu.
func (c *Cache) pushFront(n *node) {
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

// removeLocked drops n entirely. Caller holds mu.
func (c *Cache) removeLocked(n *node) {
	c.unlink(n)
	delete(c.items, n.key)
	c.bytes -= n.cost
}

// Get returns the entry for key, refreshing its recency, or (nil, nil) on
// a miss. The stored image is re-verified against the CRC-32C of the
// entry's digest; on mismatch the entry is evicted and ErrPoisoned returned, so
// damaged bytes can never be served as an assembled image. Get computes no
// SHA-256: a hit's digest is the entry's own (Entry.Digest).
func (c *Cache) Get(key Key) (*Entry, error) { return c.get(key, true) }

// Peek is Get for double-checked miss paths: a resident entry is served
// (verified, recency refreshed, counted as a hit), but a miss is not
// counted — the caller already counted its miss before deciding to run
// the assembly this lookup re-checks.
func (c *Cache) Peek(key Key) (*Entry, error) { return c.get(key, false) }

func (c *Cache) get(key Key, countMiss bool) (*Entry, error) {
	c.mu.Lock()
	n, ok := c.items[key]
	if !ok {
		if countMiss {
			c.misses++
		}
		c.mu.Unlock()
		return nil, nil
	}
	e := n.entry
	c.mu.Unlock()

	// Checksum outside the lock: hits of large images must not serialise.
	if crc32.Checksum(e.Image, Castagnoli) != e.digest.CRC {
		c.mu.Lock()
		// Re-check: the entry may have been replaced or evicted since.
		if cur, ok := c.items[key]; ok && cur == n {
			c.removeLocked(cur)
		}
		c.poisoned++
		c.mu.Unlock()
		return nil, fmt.Errorf("retrievecache: base %s generation %d: %w", key.BaseID, key.Generation, ErrPoisoned)
	}

	c.mu.Lock()
	// Refresh recency only if the same node is still resident.
	if cur, ok := c.items[key]; ok && cur == n {
		c.unlink(cur)
		c.pushFront(cur)
	}
	c.hits++
	c.mu.Unlock()
	return e, nil
}

// Admit reports whether an entry for key, with an image of imageBytes and
// the imported list, fits the budget at all. It charges exactly what Put
// would, and counts a refusal as Rejected, so a caller can skip building an
// entry that could never be resident.
func (c *Cache) Admit(key Key, imageBytes int64, imported []string) bool {
	if cost(key, imageBytes, imported) <= c.maxBytes { // maxBytes is immutable after New
		return true
	}
	c.mu.Lock()
	c.rejected++
	c.mu.Unlock()
	return false
}

// Put inserts (or replaces) the entry under key and evicts
// least-recently-used entries until the budget holds. An entry Admit
// refuses is reported false and leaves the cache unchanged. Put hashes
// nothing: the entry carries its digest from construction. An entry is Put at
// most once.
func (c *Cache) Put(key Key, e *Entry) bool {
	if !c.Admit(key, int64(len(e.Image)), e.Imported) {
		return false
	}
	n := &node{key: key, entry: e, cost: cost(key, int64(len(e.Image)), e.Imported)}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.items[key]; ok {
		c.removeLocked(old)
	}
	c.items[key] = n
	c.pushFront(n)
	c.bytes += n.cost
	c.puts++
	for c.bytes > c.maxBytes && c.tail != nil {
		c.removeLocked(c.tail)
		c.evictions++
	}
	return true
}

// Remove drops the entry for key, reporting whether one was resident.
func (c *Cache) Remove(key Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.items[key]
	if !ok {
		return false
	}
	c.removeLocked(n)
	return true
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Stats returns a consistent snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Puts:      c.puts,
		Evictions: c.evictions,
		Rejected:  c.rejected,
		Poisoned:  c.poisoned,
		Entries:   len(c.items),
		Bytes:     c.bytes,
		MaxBytes:  c.maxBytes,
	}
}
