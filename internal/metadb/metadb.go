// Package metadb implements a small embedded, ordered key/value storage
// engine with named buckets, ordered scans and snapshot persistence. It
// stands in for the SQLite database the paper uses for VMI metadata
// (Sec. V: "we used the SQLite database engine, suitable for managing VMI
// meta-data due to its self-contained, serverless, and zero-configuration
// characteristics") and for the Hemera baseline's hybrid design, which
// stores small files inside the database and large files on the filesystem.
//
// The engine is a classic B+tree: internal nodes hold separator keys and
// children, leaves hold key/value pairs and are chained for in-order
// scans. Inserts split full nodes; deletes are lazy (no eager rebalancing,
// like several production engines that defer structural cleanup to
// compaction), which keeps every tree invariant needed by readers while
// simplifying the write path. Snapshot/Load give durable round trips, and
// an optional Journal observes every committed mutation — the hook through
// which the repository feeds its metadata write-ahead log (internal/metawal),
// making Sync O(delta) instead of a whole-image rewrite, and invalidates
// its cached assemblies.
package metadb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// PageSize is the modeled database page size, matching simio's cost model.
const PageSize = 4096

// maxKeys bounds the number of keys per node; nodes split above it.
const maxKeys = 64

// OpKind labels one committed mutation reported to a Journal.
type OpKind uint8

// The journaled mutation kinds. Every path that changes durable database
// contents maps onto exactly one of them, so a journal is a complete
// operation history: replaying it against the database's prior state
// reproduces equal contents (the property the metadata WAL relies on).
const (
	OpPut          OpKind = iota + 1 // Key stored with Value
	OpDelete                         // Key removed
	OpCreateBucket                   // bucket created (no keys yet)
	OpDropBucket                     // bucket and all contents removed
)

// Op describes one committed mutation. Key and Value alias the caller's
// slices and are only valid for the duration of the Journal call — a
// journal that retains them must copy (the metadata WAL encodes them into
// its own buffer immediately).
type Op struct {
	Kind   OpKind
	Bucket string
	Key    []byte
	Value  []byte // OpPut only
}

// Journal observes committed mutations. It is invoked after the mutation
// is applied, while the mutated bucket's lock is still held, so the call
// order per bucket is exactly the apply order (a valid linearization for
// replay). The one exception is DeleteBucket, which holds only the
// bucket-directory lock: a DeleteBucket racing writers that still hold a
// handle to the doomed bucket may journal in an order that diverges from
// the live outcome (the stragglers' writes land in a detached tree), so
// journaled databases must not drop a bucket while its writers are still
// running — the repository never does. The journal must not touch the
// database and should return quickly — every writer on the bucket waits
// behind it.
type Journal func(Op)

// DB is a collection of named buckets. It is safe for concurrent use:
// locking is per bucket (each tree carries its own RWMutex), so readers and
// writers of different buckets — e.g. package-existence checks and base
// lookups from concurrent publishes — never serialise on one lock. The
// outer mutex only guards the bucket directory itself.
type DB struct {
	mu      sync.RWMutex // guards the buckets map, not bucket contents
	buckets map[string]*tree
	journal atomic.Pointer[Journal]
}

// SetJournal installs (or, with nil, removes) the mutation journal.
// Installing a journal does not emit ops for existing contents; callers
// that need a baseline take a Snapshot first (the metadata WAL's
// snapshot+log split).
func (db *DB) SetJournal(j Journal) {
	if j == nil {
		db.journal.Store(nil)
		return
	}
	db.journal.Store(&j)
}

// record emits one op to the installed journal, if any.
func (db *DB) record(op Op) {
	if j := db.journal.Load(); j != nil {
		(*j)(op)
	}
}

// New returns an empty database.
func New() *DB {
	return &DB{buckets: make(map[string]*tree)}
}

// Bucket is a handle to one named keyspace.
type Bucket struct {
	db   *DB
	name string
	t    *tree
}

// CreateBucket returns the named bucket, creating it if needed. Only an
// actual creation is journaled — fetching an existing bucket mutates
// nothing.
func (db *DB) CreateBucket(name string) *Bucket {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.buckets[name]
	if !ok {
		t = newTree()
		db.buckets[name] = t
		db.record(Op{Kind: OpCreateBucket, Bucket: name})
	}
	return &Bucket{db: db, name: name, t: t}
}

// Bucket returns the named bucket or nil if it does not exist.
func (db *DB) Bucket(name string) *Bucket {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.buckets[name]
	if !ok {
		return nil
	}
	return &Bucket{db: db, name: name, t: t}
}

// DeleteBucket removes the named bucket and all its contents. Only the
// removal of a bucket that existed is journaled. When a journal is
// installed, DeleteBucket must not race writers holding a handle to this
// bucket (see Journal).
func (db *DB) DeleteBucket(name string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.buckets[name]; !ok {
		return
	}
	delete(db.buckets, name)
	db.record(Op{Kind: OpDropBucket, Bucket: name})
}

// Buckets returns all bucket names in sorted order.
func (db *DB) Buckets() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.buckets))
	for name := range db.buckets {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Name returns the bucket's name.
func (b *Bucket) Name() string { return b.name }

// Put stores value under key, replacing any existing value. Key and value
// are copied.
func (b *Bucket) Put(key, value []byte) {
	b.t.mu.Lock()
	defer b.t.mu.Unlock()
	b.t.put(cloneBytes(key), cloneBytes(value))
	b.db.record(Op{Kind: OpPut, Bucket: b.name, Key: key, Value: value})
}

// PutIfAbsent stores value under key only when the key is not yet present,
// atomically, and reports whether it stored. It is the check-and-insert
// primitive concurrent publishes use so two uploads exporting the same
// package cannot both win.
func (b *Bucket) PutIfAbsent(key, value []byte) bool {
	b.t.mu.Lock()
	defer b.t.mu.Unlock()
	if _, ok := b.t.get(key); ok {
		return false
	}
	b.t.put(cloneBytes(key), cloneBytes(value))
	b.db.record(Op{Kind: OpPut, Bucket: b.name, Key: key, Value: value})
	return true
}

// Get returns the value stored under key. The returned slice must not be
// modified.
func (b *Bucket) Get(key []byte) ([]byte, bool) {
	b.t.mu.RLock()
	defer b.t.mu.RUnlock()
	return b.t.get(key)
}

// Update atomically rewrites the value under key: fn receives the current
// value (nil, false when absent) and returns the replacement plus whether
// to write it. The read-modify-write holds the bucket lock throughout, so
// no concurrent Put can interleave between fn's view and the write — the
// compare-and-rewrite primitive conditional record repointing (e.g. VMI
// rewiring) needs under striped commit locks. fn must not touch this
// bucket and must not retain old. Reports whether a write happened.
func (b *Bucket) Update(key []byte, fn func(old []byte, ok bool) ([]byte, bool)) bool {
	b.t.mu.Lock()
	defer b.t.mu.Unlock()
	old, ok := b.t.get(key)
	val, write := fn(old, ok)
	if !write {
		return false
	}
	b.t.put(cloneBytes(key), cloneBytes(val))
	b.db.record(Op{Kind: OpPut, Bucket: b.name, Key: key, Value: val})
	return true
}

// Delete removes key. It reports whether the key was present. Only a
// deletion that removed something is journaled.
func (b *Bucket) Delete(key []byte) bool {
	b.t.mu.Lock()
	defer b.t.mu.Unlock()
	if !b.t.delete(key) {
		return false
	}
	b.db.record(Op{Kind: OpDelete, Bucket: b.name, Key: key})
	return true
}

// Len returns the number of keys in the bucket.
func (b *Bucket) Len() int {
	b.t.mu.RLock()
	defer b.t.mu.RUnlock()
	return b.t.size
}

// ForEach calls fn for every key/value pair in ascending key order. If fn
// returns false, iteration stops. The slices must not be modified, and fn
// must not write to this bucket (it runs under the bucket's read lock).
func (b *Bucket) ForEach(fn func(key, value []byte) bool) {
	b.t.mu.RLock()
	defer b.t.mu.RUnlock()
	for leaf := b.t.firstLeaf(); leaf != nil; leaf = leaf.next {
		for i, k := range leaf.keys {
			if !fn(k, leaf.vals[i]) {
				return
			}
		}
	}
}

// --- B+tree internals ---

type node struct {
	leaf     bool
	keys     [][]byte
	vals     [][]byte // leaves only
	children []*node  // internal nodes only
	next     *node    // leaf chain
}

type tree struct {
	mu      sync.RWMutex // per-bucket lock; guards everything below
	root    *node
	size    int
	payload int64
}

func newTree() *tree {
	return &tree{root: &node{leaf: true}}
}

func (t *tree) firstLeaf() *node {
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	return n
}

// leafFor descends to the leaf that would contain key.
func (t *tree) leafFor(key []byte) *node {
	n := t.root
	for !n.leaf {
		i := sort.Search(len(n.keys), func(i int) bool {
			return bytes.Compare(key, n.keys[i]) < 0
		})
		n = n.children[i]
	}
	return n
}

func (t *tree) get(key []byte) ([]byte, bool) {
	leaf := t.leafFor(key)
	i := sort.Search(len(leaf.keys), func(i int) bool {
		return bytes.Compare(leaf.keys[i], key) >= 0
	})
	if i < len(leaf.keys) && bytes.Equal(leaf.keys[i], key) {
		return leaf.vals[i], true
	}
	return nil, false
}

func (t *tree) put(key, value []byte) {
	promoted, right := t.insert(t.root, key, value)
	if right != nil {
		t.root = &node{
			keys:     [][]byte{promoted},
			children: []*node{t.root, right},
		}
	}
}

// insert adds key/value below n. When n splits, it returns the separator
// key to promote and the new right sibling.
func (t *tree) insert(n *node, key, value []byte) (promoted []byte, right *node) {
	if n.leaf {
		i := sort.Search(len(n.keys), func(i int) bool {
			return bytes.Compare(n.keys[i], key) >= 0
		})
		if i < len(n.keys) && bytes.Equal(n.keys[i], key) {
			t.payload += int64(len(value)) - int64(len(n.vals[i]))
			n.vals[i] = value
			return nil, nil
		}
		n.keys = insertAt(n.keys, i, key)
		n.vals = insertAt(n.vals, i, value)
		t.size++
		t.payload += int64(len(key) + len(value))
		if len(n.keys) > maxKeys {
			return t.splitLeaf(n)
		}
		return nil, nil
	}
	ci := sort.Search(len(n.keys), func(i int) bool {
		return bytes.Compare(key, n.keys[i]) < 0
	})
	promoted, right = t.insert(n.children[ci], key, value)
	if right == nil {
		return nil, nil
	}
	n.keys = insertAt(n.keys, ci, promoted)
	n.children = insertNodeAt(n.children, ci+1, right)
	if len(n.keys) > maxKeys {
		return t.splitInternal(n)
	}
	return nil, nil
}

func (t *tree) splitLeaf(n *node) ([]byte, *node) {
	mid := len(n.keys) / 2
	right := &node{
		leaf: true,
		keys: append([][]byte{}, n.keys[mid:]...),
		vals: append([][]byte{}, n.vals[mid:]...),
		next: n.next,
	}
	n.keys = n.keys[:mid:mid]
	n.vals = n.vals[:mid:mid]
	n.next = right
	return right.keys[0], right
}

func (t *tree) splitInternal(n *node) ([]byte, *node) {
	mid := len(n.keys) / 2
	promoted := n.keys[mid]
	right := &node{
		keys:     append([][]byte{}, n.keys[mid+1:]...),
		children: append([]*node{}, n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid:mid]
	n.children = n.children[: mid+1 : mid+1]
	return promoted, right
}

// delete removes key from the tree. Removal is lazy: leaves may become
// empty and are skipped by readers; separator keys in internal nodes remain
// valid separators.
func (t *tree) delete(key []byte) bool {
	leaf := t.leafFor(key)
	i := sort.Search(len(leaf.keys), func(i int) bool {
		return bytes.Compare(leaf.keys[i], key) >= 0
	})
	if i >= len(leaf.keys) || !bytes.Equal(leaf.keys[i], key) {
		return false
	}
	t.payload -= int64(len(leaf.keys[i]) + len(leaf.vals[i]))
	leaf.keys = append(leaf.keys[:i], leaf.keys[i+1:]...)
	leaf.vals = append(leaf.vals[:i], leaf.vals[i+1:]...)
	t.size--
	return true
}

func insertAt(s [][]byte, i int, v []byte) [][]byte {
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func insertNodeAt(s []*node, i int, v *node) []*node {
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func cloneBytes(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// --- persistence ---

var snapshotMagic = []byte("EXPMDB1\n")

// Snapshot serialises the whole database to a byte image. The format is
// logical (buckets and sorted entries), so Load reproduces equal contents
// regardless of the original tree shape.
func (db *DB) Snapshot() []byte {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var buf bytes.Buffer
	buf.Write(snapshotMagic)
	names := make([]string, 0, len(db.buckets))
	for name := range db.buckets {
		names = append(names, name)
	}
	sort.Strings(names)
	writeUvarint(&buf, uint64(len(names)))
	for _, name := range names {
		t := db.buckets[name]
		writeBytes(&buf, []byte(name))
		t.mu.RLock()
		writeUvarint(&buf, uint64(t.size))
		for leaf := t.firstLeaf(); leaf != nil; leaf = leaf.next {
			for i, k := range leaf.keys {
				writeBytes(&buf, k)
				writeBytes(&buf, leaf.vals[i])
			}
		}
		t.mu.RUnlock()
	}
	return buf.Bytes()
}

// Load restores a database from a Snapshot image.
func Load(image []byte) (*DB, error) {
	r := bytes.NewReader(image)
	magic := make([]byte, len(snapshotMagic))
	if _, err := r.Read(magic); err != nil || !bytes.Equal(magic, snapshotMagic) {
		return nil, fmt.Errorf("metadb: bad snapshot magic")
	}
	db := New()
	nBuckets, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("metadb: corrupt snapshot: %w", err)
	}
	for i := uint64(0); i < nBuckets; i++ {
		name, err := readBytes(r)
		if err != nil {
			return nil, fmt.Errorf("metadb: corrupt bucket name: %w", err)
		}
		b := db.CreateBucket(string(name))
		n, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("metadb: corrupt bucket size: %w", err)
		}
		for j := uint64(0); j < n; j++ {
			k, err := readBytes(r)
			if err != nil {
				return nil, fmt.Errorf("metadb: corrupt key: %w", err)
			}
			v, err := readBytes(r)
			if err != nil {
				return nil, fmt.Errorf("metadb: corrupt value: %w", err)
			}
			b.Put(k, v)
		}
	}
	return db, nil
}

func writeUvarint(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	buf.Write(tmp[:n])
}

func writeBytes(buf *bytes.Buffer, b []byte) {
	writeUvarint(buf, uint64(len(b)))
	buf.Write(b)
}

func readBytes(r *bytes.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Len()) {
		return nil, fmt.Errorf("length %d exceeds remaining %d", n, r.Len())
	}
	out := make([]byte, n)
	if n == 0 {
		return out, nil // bytes.Reader returns EOF even for empty reads
	}
	if _, err := io.ReadFull(r, out); err != nil {
		return nil, err
	}
	return out, nil
}

// SizeBytes models the on-disk size of the database file: payload bytes
// plus per-entry slot overhead, rounded up to whole pages at a typical
// B+tree fill factor. This is the quantity Hemera's repository size
// accounting includes in Fig. 3.
func (db *DB) SizeBytes() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	const slotOverhead = 16
	const fillFactor = 0.92
	var payload int64
	for _, t := range db.buckets {
		t.mu.RLock()
		payload += t.payload + int64(t.size)*slotOverhead
		t.mu.RUnlock()
	}
	if payload == 0 {
		return PageSize // empty DB still occupies its header page
	}
	pages := int64(float64(payload)/(PageSize*fillFactor)) + 1
	return (pages + 1) * PageSize // +1 header page
}
