package metadb

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestPutGetDelete(t *testing.T) {
	db := New()
	b := db.CreateBucket("images")
	b.Put([]byte("k1"), []byte("v1"))
	b.Put([]byte("k2"), []byte("v2"))

	if v, ok := b.Get([]byte("k1")); !ok || string(v) != "v1" {
		t.Fatalf("Get k1 = %q,%v", v, ok)
	}
	if _, ok := b.Get([]byte("nope")); ok {
		t.Fatal("Get of absent key succeeded")
	}
	b.Put([]byte("k1"), []byte("v1-replaced"))
	if v, _ := b.Get([]byte("k1")); string(v) != "v1-replaced" {
		t.Fatalf("overwrite failed: %q", v)
	}
	if b.Len() != 2 {
		t.Fatalf("Len = %d, want 2", b.Len())
	}
	if !b.Delete([]byte("k1")) {
		t.Fatal("Delete reported absent")
	}
	if b.Delete([]byte("k1")) {
		t.Fatal("second Delete reported present")
	}
	if _, ok := b.Get([]byte("k1")); ok {
		t.Fatal("Get after Delete succeeded")
	}
	if b.Len() != 1 {
		t.Fatalf("Len after delete = %d, want 1", b.Len())
	}
}

func TestPutCopiesKeyAndValue(t *testing.T) {
	db := New()
	b := db.CreateBucket("x")
	k := []byte("key")
	v := []byte("val")
	b.Put(k, v)
	k[0], v[0] = 'X', 'X'
	if got, _ := b.Get([]byte("key")); string(got) != "val" {
		t.Fatalf("value aliased: %q", got)
	}
}

func TestBucketManagement(t *testing.T) {
	db := New()
	db.CreateBucket("b")
	db.CreateBucket("a")
	if db.Bucket("missing") != nil {
		t.Fatal("Bucket returned handle for missing bucket")
	}
	got := db.Buckets()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Buckets = %v", got)
	}
	// CreateBucket on an existing name returns the same contents.
	db.Bucket("a").Put([]byte("k"), []byte("v"))
	if v, ok := db.CreateBucket("a").Get([]byte("k")); !ok || string(v) != "v" {
		t.Fatal("CreateBucket lost existing contents")
	}
	db.DeleteBucket("a")
	if db.Bucket("a") != nil {
		t.Fatal("bucket survived DeleteBucket")
	}
}

func TestBucketIsolation(t *testing.T) {
	db := New()
	a := db.CreateBucket("a")
	b := db.CreateBucket("b")
	a.Put([]byte("k"), []byte("from-a"))
	b.Put([]byte("k"), []byte("from-b"))
	if v, _ := a.Get([]byte("k")); string(v) != "from-a" {
		t.Fatalf("bucket a sees %q", v)
	}
	if v, _ := b.Get([]byte("k")); string(v) != "from-b" {
		t.Fatalf("bucket b sees %q", v)
	}
}

func fill(b *Bucket, n int, seed int64) map[string]string {
	rng := rand.New(rand.NewSource(seed))
	want := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%06d", rng.Intn(1000000))
		v := fmt.Sprintf("val-%d", i)
		b.Put([]byte(k), []byte(v))
		want[k] = v
	}
	return want
}

func TestManyKeysSplitAndGet(t *testing.T) {
	db := New()
	b := db.CreateBucket("big")
	want := fill(b, 20000, 42)
	if b.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", b.Len(), len(want))
	}
	for k, v := range want {
		got, ok := b.Get([]byte(k))
		if !ok || string(got) != v {
			t.Fatalf("Get(%q) = %q,%v want %q", k, got, ok, v)
		}
	}
}

func TestForEachOrdered(t *testing.T) {
	db := New()
	b := db.CreateBucket("ord")
	want := fill(b, 5000, 43)
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	i := 0
	b.ForEach(func(k, v []byte) bool {
		if string(k) != keys[i] {
			t.Fatalf("position %d: got %q want %q", i, k, keys[i])
		}
		if string(v) != want[keys[i]] {
			t.Fatalf("value mismatch at %q", k)
		}
		i++
		return true
	})
	if i != len(keys) {
		t.Fatalf("visited %d keys, want %d", i, len(keys))
	}
}

func TestForEachEarlyStop(t *testing.T) {
	db := New()
	b := db.CreateBucket("stop")
	fill(b, 100, 44)
	count := 0
	b.ForEach(func(k, v []byte) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatalf("visited %d, want 10", count)
	}
}

func TestDeleteHeavyThenIterate(t *testing.T) {
	db := New()
	b := db.CreateBucket("dh")
	const n = 5000
	for i := 0; i < n; i++ {
		b.Put([]byte(fmt.Sprintf("k%05d", i)), []byte("v"))
	}
	// Delete every key not divisible by 7, leaving sparse leaves (lazy
	// deletion must not confuse iteration).
	for i := 0; i < n; i++ {
		if i%7 != 0 {
			b.Delete([]byte(fmt.Sprintf("k%05d", i)))
		}
	}
	want := 0
	for i := 0; i < n; i += 7 {
		want++
	}
	if b.Len() != want {
		t.Fatalf("Len = %d, want %d", b.Len(), want)
	}
	seen := 0
	prev := ""
	b.ForEach(func(k, v []byte) bool {
		if prev != "" && string(k) <= prev {
			t.Fatalf("iteration out of order: %q after %q", k, prev)
		}
		prev = string(k)
		seen++
		return true
	})
	if seen != want {
		t.Fatalf("iterated %d, want %d", seen, want)
	}
}

func TestPayloadBytesTracking(t *testing.T) {
	db := New()
	b := db.CreateBucket("pb")
	b.Put([]byte("abc"), []byte("12345"))
	if got := b.t.payload; got != 8 {
		t.Fatalf("PayloadBytes = %d, want 8", got)
	}
	b.Put([]byte("abc"), []byte("1")) // replace shrinks
	if got := b.t.payload; got != 4 {
		t.Fatalf("PayloadBytes after replace = %d, want 4", got)
	}
	b.Delete([]byte("abc"))
	if got := b.t.payload; got != 0 {
		t.Fatalf("PayloadBytes after delete = %d, want 0", got)
	}
}

func TestSnapshotLoadRoundTrip(t *testing.T) {
	db := New()
	a := db.CreateBucket("alpha")
	wantA := fill(a, 2000, 46)
	db.CreateBucket("empty")
	bb := db.CreateBucket("beta")
	bb.Put([]byte{0x00}, []byte{})
	bb.Put([]byte{}, []byte("empty-key"))

	img := db.Snapshot()
	got, err := Load(img)
	if err != nil {
		t.Fatal(err)
	}
	if names := got.Buckets(); len(names) != 3 {
		t.Fatalf("Buckets = %v", names)
	}
	ga := got.Bucket("alpha")
	if ga.Len() != len(wantA) {
		t.Fatalf("alpha Len = %d, want %d", ga.Len(), len(wantA))
	}
	for k, v := range wantA {
		if gv, ok := ga.Get([]byte(k)); !ok || string(gv) != v {
			t.Fatalf("alpha[%q] = %q,%v", k, gv, ok)
		}
	}
	if v, ok := got.Bucket("beta").Get([]byte{}); !ok || string(v) != "empty-key" {
		t.Fatal("empty key lost in round trip")
	}
	if got.Bucket("empty").Len() != 0 {
		t.Fatal("empty bucket gained keys")
	}
}

func TestLoadRejectsCorruptImages(t *testing.T) {
	if _, err := Load([]byte("not a snapshot")); err == nil {
		t.Fatal("Load accepted garbage")
	}
	db := New()
	db.CreateBucket("x").Put([]byte("k"), []byte("v"))
	img := db.Snapshot()
	if _, err := Load(img[:len(img)-3]); err == nil {
		t.Fatal("Load accepted truncated image")
	}
}

func TestSizeBytesModel(t *testing.T) {
	db := New()
	if db.SizeBytes() != PageSize {
		t.Fatalf("empty DB SizeBytes = %d, want one page", db.SizeBytes())
	}
	b := db.CreateBucket("files")
	payload := 0
	for i := 0; i < 1000; i++ {
		v := bytes.Repeat([]byte{byte(i)}, 512)
		k := fmt.Sprintf("file-%04d", i)
		b.Put([]byte(k), v)
		payload += len(k) + len(v)
	}
	size := db.SizeBytes()
	if size < int64(payload) {
		t.Fatalf("SizeBytes %d below payload %d", size, payload)
	}
	if size > int64(payload)*2 {
		t.Fatalf("SizeBytes %d more than 2x payload %d", size, payload)
	}
	if size%PageSize != 0 {
		t.Fatalf("SizeBytes %d not page aligned", size)
	}
}

// TestQuickOracle drives random put/delete/get sequences against a map
// oracle, then verifies full ordered iteration.
func TestQuickOracle(t *testing.T) {
	err := quick.Check(func(ops []struct {
		Key byte
		Val uint16
		Del bool
	}) bool {
		db := New()
		b := db.CreateBucket("oracle")
		oracle := map[string]string{}
		for _, op := range ops {
			k := fmt.Sprintf("k%03d", op.Key)
			if op.Del {
				delete(oracle, k)
				b.Delete([]byte(k))
			} else {
				v := fmt.Sprintf("v%d", op.Val)
				oracle[k] = v
				b.Put([]byte(k), []byte(v))
			}
		}
		if b.Len() != len(oracle) {
			return false
		}
		for k, v := range oracle {
			got, ok := b.Get([]byte(k))
			if !ok || string(got) != v {
				return false
			}
		}
		keys := make([]string, 0, len(oracle))
		for k := range oracle {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		i := 0
		good := true
		b.ForEach(func(k, v []byte) bool {
			if i >= len(keys) || string(k) != keys[i] {
				good = false
				return false
			}
			i++
			return true
		})
		return good && i == len(keys)
	}, &quick.Config{MaxCount: 150})
	if err != nil {
		t.Fatal(err)
	}
}

// TestQuickSnapshotRoundTrip: Snapshot→Load preserves exact contents for
// arbitrary key/value sets.
func TestQuickSnapshotRoundTrip(t *testing.T) {
	err := quick.Check(func(pairs map[string][]byte) bool {
		db := New()
		b := db.CreateBucket("q")
		for k, v := range pairs {
			b.Put([]byte(k), v)
		}
		got, err := Load(db.Snapshot())
		if err != nil {
			return false
		}
		gb := got.Bucket("q")
		if gb.Len() != len(pairs) {
			return false
		}
		for k, v := range pairs {
			gv, ok := gb.Get([]byte(k))
			if !ok || !bytes.Equal(gv, v) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPut(b *testing.B) {
	db := New()
	bk := db.CreateBucket("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bk.Put([]byte(fmt.Sprintf("key-%09d", i)), []byte("value"))
	}
}

func BenchmarkGet(b *testing.B) {
	db := New()
	bk := db.CreateBucket("bench")
	for i := 0; i < 100000; i++ {
		bk.Put([]byte(fmt.Sprintf("key-%09d", i)), []byte("value"))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bk.Get([]byte(fmt.Sprintf("key-%09d", i%100000)))
	}
}

// TestBucketUpdate pins the atomic read-modify-write primitive: fn sees
// the current value under the bucket lock, can decline the write, and a
// written value is stored under the key like a Put.
func TestBucketUpdate(t *testing.T) {
	db := New()
	db.CreateBucket("b")
	b := db.Bucket("b")

	// Absent key: fn sees (nil, false); declining writes nothing.
	wrote := b.Update([]byte("k"), func(old []byte, ok bool) ([]byte, bool) {
		if old != nil || ok {
			t.Fatalf("fn saw (%q, %v) for an absent key", old, ok)
		}
		return nil, false
	})
	if wrote {
		t.Fatal("declined update reported a write")
	}
	if _, ok := b.Get([]byte("k")); ok {
		t.Fatal("declined update stored a value")
	}

	// Conditional rewrite sees the current value and replaces it.
	b.Put([]byte("k"), []byte("v1"))
	wrote = b.Update([]byte("k"), func(old []byte, ok bool) ([]byte, bool) {
		if !ok || string(old) != "v1" {
			t.Fatalf("fn saw (%q, %v), want (v1, true)", old, ok)
		}
		return []byte("v2"), true
	})
	if !wrote {
		t.Fatal("accepted update reported no write")
	}
	if got, _ := b.Get([]byte("k")); string(got) != "v2" {
		t.Fatalf("value after update = %q, want v2", got)
	}
}
