// Package metadb implements a small embedded, ordered key/value storage
// engine with named buckets, ordered scans and snapshot persistence. It
// stands in for the SQLite database the paper uses for VMI metadata
// (Sec. V: "we used the SQLite database engine, suitable for managing VMI
// meta-data due to its self-contained, serverless, and zero-configuration
// characteristics") and for the Hemera baseline's hybrid design, which
// stores small files inside the database and large files on the filesystem.
//
// A bucket is a sorted map: its keys and values sit in two slices ordered
// by key, so a lookup is a binary search and a scan is a loop. Nothing
// outside the package sees the layout, only the logical contents
// (Snapshot), the modeled file size (SizeBytes) and the Journal. Every
// write follows one rule: it journals an op exactly when it changed the
// bucket. The journal is the hook through which the repository feeds its
// metadata write-ahead log (internal/metawal), making Sync O(delta) instead
// of a whole-image rewrite, and invalidates its cached assemblies.
package metadb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// PageSize is the modeled database page size, matching simio's cost model.
const PageSize = 4096

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
// is applied, while the mutated bucket's lock (for a creation, the bucket
// directory's) is still held, so the call order per bucket is exactly the
// apply order: a valid linearization for replay. A write that changes
// nothing journals nothing: a Put or Update that stores the value already
// there, a Delete or Update-delete of an absent key, a PutIfAbsent that
// finds its key, and a CreateBucket of an existing bucket. The journal
// must not touch the database and should return quickly — every writer on
// the bucket waits behind it.
type Journal func(Op)

// DB is a collection of named buckets. It is safe for concurrent use:
// locking is per bucket (each table carries its own RWMutex), so readers
// and writers of different buckets — e.g. package-existence checks and base
// lookups from concurrent publishes — never serialise on one lock. The
// outer mutex only guards the bucket directory itself.
type DB struct {
	mu      sync.RWMutex // guards the buckets map, not bucket contents
	buckets map[string]*table
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
	return &DB{buckets: make(map[string]*table)}
}

// Bucket is a handle to one named keyspace.
type Bucket struct {
	db   *DB
	name string
	t    *table
}

// table is one bucket's contents: keys ascending, vals[i] stored under
// keys[i]. Both slices own their elements, which are never modified in
// place, so a value returned by Get stays valid after later writes.
type table struct {
	mu      sync.RWMutex // per-bucket lock; guards everything below
	keys    [][]byte
	vals    [][]byte
	payload int64 // key plus value bytes, for SizeBytes
}

// find returns key's position, or where it would be inserted, and whether
// it is present.
func (t *table) find(key []byte) (int, bool) {
	return slices.BinarySearchFunc(t.keys, key, bytes.Compare)
}

// CreateBucket returns the named bucket, creating it if needed. Only an
// actual creation is journaled — fetching an existing bucket mutates
// nothing.
func (db *DB) CreateBucket(name string) *Bucket {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.buckets[name]
	if !ok {
		t = &table{}
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
	i, ok := b.t.find(key)
	b.write(i, ok, key, value, true)
}

// PutIfAbsent stores value under key only when the key is not yet present,
// atomically, and reports whether it stored. It is the check-and-insert
// primitive concurrent publishes use so two uploads exporting the same
// package cannot both win.
func (b *Bucket) PutIfAbsent(key, value []byte) bool {
	b.t.mu.Lock()
	defer b.t.mu.Unlock()
	i, ok := b.t.find(key)
	return !ok && b.write(i, ok, key, value, true)
}

// Get returns the value stored under key. The returned slice must not be
// modified.
func (b *Bucket) Get(key []byte) ([]byte, bool) {
	b.t.mu.RLock()
	defer b.t.mu.RUnlock()
	if i, ok := b.t.find(key); ok {
		return b.t.vals[i], true
	}
	return nil, false
}

// Update atomically rewrites the entry under key: fn receives the current
// value (nil, false when absent) and returns what the key should hold —
// val when keep is true, nothing (a delete) when keep is false. Returning
// the current value, or (nil, false) for an absent key, changes nothing.
// The read-modify-write holds the bucket lock throughout, so no concurrent
// write can interleave between fn's view and the write — the primitive
// conditional record repointing and counters that delete at zero need
// under striped commit locks. fn must not touch this bucket and must not
// retain old. Reports whether the bucket changed.
func (b *Bucket) Update(key []byte, fn func(old []byte, ok bool) (val []byte, keep bool)) bool {
	b.t.mu.Lock()
	defer b.t.mu.Unlock()
	i, ok := b.t.find(key)
	var old []byte
	if ok {
		old = b.t.vals[i]
	}
	val, keep := fn(old, ok)
	return b.write(i, ok, key, val, keep)
}

// Delete removes key. It reports whether the key was present.
func (b *Bucket) Delete(key []byte) bool {
	b.t.mu.Lock()
	defer b.t.mu.Unlock()
	i, ok := b.t.find(key)
	return b.write(i, ok, key, nil, false)
}

// write is every mutation: at key's position i (present when ok), it
// stores a copy of val when keep is true and deletes the key otherwise. It
// journals one op when the bucket changed and reports whether it did. The
// caller holds the write lock.
func (b *Bucket) write(i int, ok bool, key, val []byte, keep bool) bool {
	t := b.t
	switch {
	case !keep && !ok, keep && ok && bytes.Equal(t.vals[i], val):
		return false
	case !keep:
		t.payload -= int64(len(t.keys[i]) + len(t.vals[i]))
		t.keys = slices.Delete(t.keys, i, i+1)
		t.vals = slices.Delete(t.vals, i, i+1)
		b.db.record(Op{Kind: OpDelete, Bucket: b.name, Key: key})
		return true
	case ok:
		t.payload += int64(len(val) - len(t.vals[i]))
		t.vals[i] = bytes.Clone(val)
	default:
		t.keys = slices.Insert(t.keys, i, bytes.Clone(key))
		t.vals = slices.Insert(t.vals, i, bytes.Clone(val))
		t.payload += int64(len(key) + len(val))
	}
	b.db.record(Op{Kind: OpPut, Bucket: b.name, Key: key, Value: val})
	return true
}

// Len returns the number of keys in the bucket.
func (b *Bucket) Len() int {
	b.t.mu.RLock()
	defer b.t.mu.RUnlock()
	return len(b.t.keys)
}

// ForEach calls fn for every key/value pair in ascending key order. If fn
// returns false, iteration stops. The slices must not be modified, and fn
// must not write to this bucket (it runs under the bucket's read lock).
func (b *Bucket) ForEach(fn func(key, value []byte) bool) {
	b.t.mu.RLock()
	defer b.t.mu.RUnlock()
	for i, k := range b.t.keys {
		if !fn(k, b.t.vals[i]) {
			return
		}
	}
}

// --- persistence ---

var snapshotMagic = []byte("EXPMDB1\n")

// Snapshot serialises the whole database to a byte image: each bucket's
// name, then its entries in key order.
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
		writeUvarint(&buf, uint64(len(t.keys)))
		for i, k := range t.keys {
			writeBytes(&buf, k)
			writeBytes(&buf, t.vals[i])
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
// fill factor for the B-tree pages of the SQLite file it stands in for.
// This is the quantity Hemera's repository size accounting includes in
// Fig. 3.
func (db *DB) SizeBytes() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	const slotOverhead = 16
	const fillFactor = 0.92
	var payload int64
	for _, t := range db.buckets {
		t.mu.RLock()
		payload += t.payload + int64(len(t.keys))*slotOverhead
		t.mu.RUnlock()
	}
	if payload == 0 {
		return PageSize // empty DB still occupies its header page
	}
	pages := int64(float64(payload)/(PageSize*fillFactor)) + 1
	return (pages + 1) * PageSize // +1 header page
}
