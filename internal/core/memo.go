package core

import (
	"hash/maphash"
	"sync/atomic"
)

var memoSeed = maphash.MakeSeed()

// slotMemo is a bounded memo safe for concurrent use: a direct-mapped
// table of atomic slots, each holding the entry of the one key that last
// took it. A key whose slot another key took is missing until it is put
// again, so nothing is ever invalidated, only overwritten.
type slotMemo[K comparable, V any] struct {
	slots []atomic.Pointer[memoEntry[K, V]]
}

// memoEntry is one stored entry. It is never changed once stored.
type memoEntry[K comparable, V any] struct {
	key K
	val V
}

func newSlotMemo[K comparable, V any](slots int) *slotMemo[K, V] {
	return &slotMemo[K, V]{slots: make([]atomic.Pointer[memoEntry[K, V]], slots)}
}

func (m *slotMemo[K, V]) slot(key K) *atomic.Pointer[memoEntry[K, V]] {
	return &m.slots[maphash.Comparable(memoSeed, key)%uint64(len(m.slots))]
}

// get returns key's entry, or nil when its slot holds another key or none.
func (m *slotMemo[K, V]) get(key K) *memoEntry[K, V] {
	if e := m.slot(key).Load(); e != nil && e.key == key {
		return e
	}
	return nil
}

// put stores val as key's entry, evicting whatever held its slot.
func (m *slotMemo[K, V]) put(key K, val V) {
	m.slot(key).Store(&memoEntry[K, V]{key, val})
}
