package metadb

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// recordingJournal captures ops with deep copies (the Op contract says
// slices are only valid during the call).
type recordingJournal struct {
	mu  sync.Mutex
	ops []Op
}

func (r *recordingJournal) record(op Op) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops = append(r.ops, Op{
		Kind:   op.Kind,
		Bucket: op.Bucket,
		Key:    append([]byte(nil), op.Key...),
		Value:  append([]byte(nil), op.Value...),
	})
}

// replay applies captured ops to a fresh database.
func (r *recordingJournal) replay() *DB {
	db := New()
	for _, op := range r.ops {
		switch op.Kind {
		case OpPut:
			db.CreateBucket(op.Bucket).Put(op.Key, op.Value)
		case OpDelete:
			db.CreateBucket(op.Bucket).Delete(op.Key)
		case OpCreateBucket:
			db.CreateBucket(op.Bucket)
		}
	}
	return db
}

// TestJournalEmitsOnlyCommittedMutations pins exactly which calls emit
// ops: every path that changes contents does, every path that leaves them
// as they were does not.
func TestJournalEmitsOnlyCommittedMutations(t *testing.T) {
	db := New()
	j := &recordingJournal{}
	db.SetJournal(j.record)

	b := db.CreateBucket("b") // new -> op
	db.CreateBucket("b")      // existing -> no op
	b.Put([]byte("k"), []byte("v1"))
	b.Put([]byte("k"), []byte("v1")) // identical -> no op
	if !b.PutIfAbsent([]byte("k2"), []byte("v2")) {
		t.Fatal("PutIfAbsent of fresh key failed")
	}
	if b.PutIfAbsent([]byte("k2"), []byte("loser")) { // skipped -> no op
		t.Fatal("PutIfAbsent overwrote")
	}
	b.Update([]byte("k"), func(old []byte, ok bool) ([]byte, bool) {
		return []byte("v1-updated"), true
	})
	if b.Update([]byte("k"), func(old []byte, ok bool) ([]byte, bool) {
		return old, ok // the current value -> no op
	}) {
		t.Fatal("Update returning the current value reported a change")
	}
	if !b.Delete([]byte("k2")) {
		t.Fatal("Delete of present key failed")
	}
	if b.Delete([]byte("missing")) { // absent -> no op
		t.Fatal("Delete of absent key reported true")
	}
	if !b.Update([]byte("k"), func(old []byte, ok bool) ([]byte, bool) {
		return nil, false // keep == false -> delete
	}) {
		t.Fatal("Update deleting a present key reported no change")
	}
	if b.Update([]byte("missing"), func(old []byte, ok bool) ([]byte, bool) {
		return nil, false // delete of an absent key -> no op
	}) {
		t.Fatal("Update deleting an absent key reported a change")
	}

	want := []Op{
		{Kind: OpCreateBucket, Bucket: "b"},
		{Kind: OpPut, Bucket: "b", Key: []byte("k"), Value: []byte("v1")},
		{Kind: OpPut, Bucket: "b", Key: []byte("k2"), Value: []byte("v2")},
		{Kind: OpPut, Bucket: "b", Key: []byte("k"), Value: []byte("v1-updated")},
		{Kind: OpDelete, Bucket: "b", Key: []byte("k2")},
		{Kind: OpDelete, Bucket: "b", Key: []byte("k")},
	}
	if len(j.ops) != len(want) {
		t.Fatalf("journaled %d ops, want %d: %+v", len(j.ops), len(want), j.ops)
	}
	for i, w := range want {
		got := j.ops[i]
		if got.Kind != w.Kind || got.Bucket != w.Bucket ||
			!bytes.Equal(got.Key, w.Key) || !bytes.Equal(got.Value, w.Value) {
			t.Fatalf("op %d = %+v, want %+v", i, got, w)
		}
	}
}

// TestJournalReplayEquivalence is the unit-level replay-equivalence
// property: a random op sequence replayed from its journal yields a
// byte-identical snapshot — the invariant the metadata WAL's recovery
// path depends on.
func TestJournalReplayEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	db := New()
	j := &recordingJournal{}
	db.SetJournal(j.record)

	buckets := []string{"alpha", "beta", "gamma"}
	for i := 0; i < 2000; i++ {
		b := db.CreateBucket(buckets[rng.Intn(len(buckets))])
		key := []byte(fmt.Sprintf("key-%03d", rng.Intn(200)))
		switch rng.Intn(5) {
		case 0, 1:
			b.Put(key, []byte(fmt.Sprintf("val-%d", i)))
		case 2:
			b.PutIfAbsent(key, []byte(fmt.Sprintf("ifabsent-%d", i)))
		case 3:
			b.Update(key, func(old []byte, ok bool) ([]byte, bool) {
				if !ok || bytes.HasSuffix(old, []byte("!!")) {
					return nil, false
				}
				return append(append([]byte(nil), old...), '!'), true
			})
		case 4:
			b.Delete(key)
		}
	}

	if got, want := j.replay().Snapshot(), db.Snapshot(); !bytes.Equal(got, want) {
		t.Fatalf("journal replay snapshot differs: %d vs %d bytes", len(got), len(want))
	}
}

// TestJournalConcurrentLinearization drives concurrent writers and
// checks the journal is a valid linearization: replaying it reproduces
// the exact final contents. Per key the bucket lock orders apply and
// emit together; across keys any captured order commutes.
func TestJournalConcurrentLinearization(t *testing.T) {
	db := New()
	j := &recordingJournal{}
	db.SetJournal(j.record)
	b := db.CreateBucket("shared")

	const workers = 8
	const rounds = 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				// Each worker owns a key range and also fights over one
				// shared key.
				own := []byte(fmt.Sprintf("w%d-k%d", w, i%17))
				b.Put(own, []byte(fmt.Sprintf("v%d", i)))
				b.Update([]byte("contended"), func(old []byte, ok bool) ([]byte, bool) {
					return []byte(fmt.Sprintf("w%d-%d", w, i)), true
				})
				if i%5 == 0 {
					b.Delete(own)
				}
			}
		}(w)
	}
	wg.Wait()

	if got, want := j.replay().Snapshot(), db.Snapshot(); !bytes.Equal(got, want) {
		t.Fatalf("concurrent journal replay differs from live contents")
	}
}

// TestJournalRemoved pins that SetJournal(nil) stops emission.
func TestJournalRemoved(t *testing.T) {
	db := New()
	j := &recordingJournal{}
	db.SetJournal(j.record)
	b := db.CreateBucket("b")
	b.Put([]byte("k"), []byte("v"))
	n := len(j.ops)
	db.SetJournal(nil)
	b.Put([]byte("k2"), []byte("v2"))
	if len(j.ops) != n {
		t.Fatalf("journal still receiving ops after removal")
	}
}
