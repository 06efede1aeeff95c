package core

import (
	"hash/maphash"
	"sync/atomic"
)

var memoSeed = maphash.MakeSeed()

// slotMemo is a bounded memo safe for concurrent use: a direct-mapped
// table of atomic slots, each holding the entry of the one key that last
// took it. A key whose slot another key took is missing until it is put
// again, so nothing is ever invalidated, only overwritten. A memo made by
// newBudgetMemo also bounds what its entries weigh together.
type slotMemo[K comparable, V any] struct {
	slots  []atomic.Pointer[memoEntry[K, V]]
	budget int64        // the most the stored entries may weigh together
	held   atomic.Int64 // what the stored entries weigh together
}

// memoEntry is one stored entry. It is never changed once stored.
type memoEntry[K comparable, V any] struct {
	key    K
	val    V
	weight int64
}

func newSlotMemo[K comparable, V any](slots int) *slotMemo[K, V] {
	return newBudgetMemo[K, V](slots, 0)
}

// newBudgetMemo returns a memo whose entries, each weighing what
// putWeighed was told, never weigh more than budget together.
func newBudgetMemo[K comparable, V any](slots int, budget int64) *slotMemo[K, V] {
	return &slotMemo[K, V]{slots: make([]atomic.Pointer[memoEntry[K, V]], slots), budget: budget}
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
	m.putWeighed(key, val, 0)
}

// putWeighed stores val, which weighs weight, as key's entry like put,
// unless the entries would then weigh more than the budget. The weight is
// reserved before the slot is taken and the evicted entry's released
// after, so the entries never weigh more than the budget, even while puts
// race.
func (m *slotMemo[K, V]) putWeighed(key K, val V, weight int64) {
	for weight > 0 {
		held := m.held.Load()
		if held+weight > m.budget {
			return
		}
		if m.held.CompareAndSwap(held, held+weight) {
			break
		}
	}
	if old := m.slot(key).Swap(&memoEntry[K, V]{key, val, weight}); old != nil {
		m.held.Add(-old.weight)
	}
}
