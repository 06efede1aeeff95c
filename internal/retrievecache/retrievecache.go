// Package retrievecache implements the repository's retrieval cache: a
// size-bounded, concurrency-safe LRU of assembled VMI images. Retrieval
// (Algorithm 3) re-runs base copy, VMI reset and per-group package import
// from scratch on every request, and related work on VM image distribution
// identifies repeat instantiation of popular images as the dominant cost in
// real clouds — so the cache keeps the serialized form of recently
// assembled images and serves repeats without touching the assembler.
//
// Correctness is invalidation-shaped. A cache key is the quadruple
// (base image, sorted primary-package set, user-data source, repository
// generation); the generation is the combined striped counter the
// repository bumps around every mutation touching the key's base image or
// VMI name (publish commits, removals, user-data replacement — see
// vmirepo.GenerationFor), so any relevant change moves subsequent lookups
// to fresh keys and makes the previously cached entries for that base
// unreachable, while mutations scoped to other stripes leave them
// servable. Entries additionally
// carry the SHA-256 of their serialized image and are re-verified on every
// hit: a poisoned entry (bit rot, an aliasing bug, a caller scribbling on
// shared bytes) surfaces as ErrPoisoned instead of wrong image bytes.
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
	"sort"
	"strings"
	"sync"
	"time"

	"expelliarmus/internal/pkgmeta"
	"expelliarmus/internal/simio"
)

// ErrPoisoned marks a cache hit whose stored image bytes no longer match
// the content hash captured at insertion. Served bytes would be wrong, so
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

// Entry is one cached assembly: the serialized image plus everything
// needed to replay the cold retrieval's report. Entries handed to Put are
// owned by the cache; entries returned by Get are shared — callers must
// treat every field as read-only and copy what they keep.
type Entry struct {
	// Image is the serialized (qcow2-like) assembled image. It is verified
	// against the content hash captured at insertion on every hit.
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

	sum [sha256.Size]byte
}

// NewEntry builds an entry, copying the imported list and phase map (the
// image bytes are taken over as-is; callers hand over ownership).
func NewEntry(image []byte, base pkgmeta.BaseAttrs, imported []string, importedBytes int64, phases map[simio.Phase]time.Duration) *Entry {
	ph := make(map[simio.Phase]time.Duration, len(phases))
	for p, d := range phases {
		ph[p] = d
	}
	return &Entry{
		Image:         image,
		Base:          base,
		Imported:      append([]string(nil), imported...),
		ImportedBytes: importedBytes,
		Phases:        ph,
	}
}

// entryOverhead approximates the per-entry bookkeeping bytes (list node,
// map slot, struct headers) charged against the byte budget on top of the
// payload, so a cache full of tiny entries cannot balloon unaccounted.
const entryOverhead = 256

// cost is the bytes an entry charges against the budget.
func cost(key Key, e *Entry) int64 {
	c := int64(entryOverhead + len(e.Image) + len(key.BaseID) + len(key.Primaries) + len(key.UserData))
	for _, p := range e.Imported {
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
	// Rejected counts entries that alone exceed it — refused by Put, or
	// skipped upfront by the caller and recorded via NoteRejected.
	Evictions, Rejected int64
	// Poisoned counts hits whose image bytes failed content verification
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
// a miss. The stored image is re-verified against the content hash taken
// at insertion; on mismatch the entry is evicted and ErrPoisoned returned,
// so damaged bytes can never be served as an assembled image.
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

	// Hash outside the lock: hits of large images must not serialise.
	if sha256.Sum256(e.Image) != e.sum {
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

// Put inserts (or replaces) the entry under key, captures its content
// hash, and evicts least-recently-used entries until the budget holds. An
// entry whose cost alone exceeds the budget is rejected and reported
// false; the cache is unchanged — and the rejection happens before the
// content hash is computed, so an uncacheably large image does not pay a
// full SHA-256 on every miss.
func (c *Cache) Put(key Key, e *Entry) bool {
	n := &node{key: key, entry: e, cost: cost(key, e)}
	if n.cost > c.maxBytes { // maxBytes is immutable after New
		c.mu.Lock()
		c.rejected++
		c.mu.Unlock()
		return false
	}
	// Hash outside the lock, like Get: inserts of large images must not
	// serialise the cache.
	e.sum = sha256.Sum256(e.Image)
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

// NoteRejected records an insert the caller skipped because the entry
// could never be resident (a serialized image whose lower-bound size
// already exceeds the budget), keeping Stats.Rejected an accurate count
// of uncacheable assemblies even when Put is never called for them.
func (c *Cache) NoteRejected() {
	c.mu.Lock()
	c.rejected++
	c.mu.Unlock()
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

// MaxBytes returns the byte budget (immutable after New). Callers can use
// it to skip building an entry that could never be resident.
func (c *Cache) MaxBytes() int64 { return c.maxBytes }

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
