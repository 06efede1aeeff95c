package chunker

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"testing"
	"testing/quick"
)

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// reassemble concatenates chunk data and checks offsets are contiguous.
func reassemble(t *testing.T, chunks []Chunk) []byte {
	t.Helper()
	var buf bytes.Buffer
	var next int64
	for i, c := range chunks {
		if c.Offset != next {
			t.Fatalf("chunk %d offset = %d, want %d", i, c.Offset, next)
		}
		if len(c.Data) == 0 {
			t.Fatalf("chunk %d is empty", i)
		}
		buf.Write(c.Data)
		next += int64(len(c.Data))
	}
	return buf.Bytes()
}

func TestFixedSplitSizes(t *testing.T) {
	f := NewFixed(100)
	data := randBytes(rand.New(rand.NewSource(1)), 1050)
	chunks := f.Split(data)
	if len(chunks) != 11 {
		t.Fatalf("got %d chunks, want 11", len(chunks))
	}
	for i, c := range chunks[:10] {
		if len(c.Data) != 100 {
			t.Fatalf("chunk %d len = %d, want 100", i, len(c.Data))
		}
	}
	if len(chunks[10].Data) != 50 {
		t.Fatalf("last chunk len = %d, want 50", len(chunks[10].Data))
	}
	if !bytes.Equal(reassemble(t, chunks), data) {
		t.Fatal("fixed chunks do not reassemble to input")
	}
}

func TestFixedExactMultiple(t *testing.T) {
	f := NewFixed(64)
	data := randBytes(rand.New(rand.NewSource(2)), 640)
	chunks := f.Split(data)
	if len(chunks) != 10 {
		t.Fatalf("got %d chunks, want 10", len(chunks))
	}
	for i, c := range chunks {
		if len(c.Data) != 64 {
			t.Fatalf("chunk %d len = %d, want 64", i, len(c.Data))
		}
	}
}

func TestFixedEmptyInput(t *testing.T) {
	if got := NewFixed(10).Split(nil); got != nil {
		t.Fatalf("Split(nil) = %v, want nil", got)
	}
	if got := NewFixed(10).Split([]byte{}); got != nil {
		t.Fatalf("Split(empty) = %v, want nil", got)
	}
}

func TestFixedBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFixed(0)
}

func TestFixedName(t *testing.T) {
	if got := NewFixed(4096).Name(); got != "fixed-4096" {
		t.Fatalf("Name = %q", got)
	}
}

func TestRabinName(t *testing.T) {
	if got := NewRabin(8192).Name(); got != "rabin-8192" {
		t.Fatalf("Name = %q", got)
	}
}

func TestRabinBadSizePanics(t *testing.T) {
	for _, bad := range []int{0, -8, 3000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRabin(%d): expected panic", bad)
				}
			}()
			NewRabin(bad)
		}()
	}
}

func TestRabinCoversInput(t *testing.T) {
	r := NewRabin(1024)
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 47, 48, 255, 256, 1024, 4096, 100000} {
		data := randBytes(rng, n)
		chunks := r.Split(data)
		if n == 0 {
			if chunks != nil {
				t.Fatalf("Split(empty) = %v", chunks)
			}
			continue
		}
		if !bytes.Equal(reassemble(t, chunks), data) {
			t.Fatalf("n=%d: chunks do not reassemble", n)
		}
	}
}

func TestRabinChunkBounds(t *testing.T) {
	r := NewRabin(1024)
	data := randBytes(rand.New(rand.NewSource(4)), 1<<18)
	chunks := r.Split(data)
	if len(chunks) < 2 {
		t.Fatalf("expected multiple chunks, got %d", len(chunks))
	}
	for i, c := range chunks {
		if len(c.Data) > r.maxSize {
			t.Fatalf("chunk %d len %d exceeds max %d", i, len(c.Data), r.maxSize)
		}
		if i < len(chunks)-1 && len(c.Data) <= r.minSize-1 {
			t.Fatalf("non-final chunk %d len %d below min %d", i, len(c.Data), r.minSize)
		}
	}
}

func TestRabinDeterministic(t *testing.T) {
	r1 := NewRabin(2048)
	r2 := NewRabin(2048)
	data := randBytes(rand.New(rand.NewSource(5)), 1<<17)
	a := r1.Split(data)
	b := r2.Split(data)
	if len(a) != len(b) {
		t.Fatalf("chunk counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Offset != b[i].Offset || len(a[i].Data) != len(b[i].Data) {
			t.Fatalf("chunk %d differs", i)
		}
	}
}

func TestRabinAverageSize(t *testing.T) {
	r := NewRabin(4096)
	data := randBytes(rand.New(rand.NewSource(6)), 1<<21)
	chunks := r.Split(data)
	avg := len(data) / len(chunks)
	// Content-defined chunking with min/max bounds lands within a factor of
	// ~2.5 of the target on random data.
	if avg < 4096/3 || avg > 4096*3 {
		t.Fatalf("average chunk size %d too far from target 4096 (%d chunks)", avg, len(chunks))
	}
}

func chunkHashes(chunks []Chunk) map[[32]byte]bool {
	set := make(map[[32]byte]bool, len(chunks))
	for _, c := range chunks {
		set[sha256.Sum256(c.Data)] = true
	}
	return set
}

func sharedFraction(orig, edited []Chunk) float64 {
	origSet := chunkHashes(orig)
	shared := 0
	for _, c := range edited {
		if origSet[sha256.Sum256(c.Data)] {
			shared++
		}
	}
	return float64(shared) / float64(len(edited))
}

// TestRabinResyncAfterInsertion exercises the defining property of
// content-defined chunking: inserting a few bytes mid-stream perturbs only
// a local neighbourhood of boundaries, while fixed-size chunking loses all
// alignment after the edit point.
func TestRabinResyncAfterInsertion(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := randBytes(rng, 1<<19) // 512 KiB
	edit := make([]byte, 0, len(data)+7)
	edit = append(edit, data[:200000]...)
	edit = append(edit, []byte("INSERT!")...)
	edit = append(edit, data[200000:]...)

	r := NewRabin(4096)
	rabinShared := sharedFraction(r.Split(data), r.Split(edit))
	if rabinShared < 0.85 {
		t.Errorf("rabin shared fraction after insertion = %.2f, want >= 0.85", rabinShared)
	}

	f := NewFixed(4096)
	fixedShared := sharedFraction(f.Split(data), f.Split(edit))
	// Fixed chunking only retains the prefix before the edit: 200000/524295
	// of the stream, ~38% of chunks, plus nothing after.
	if fixedShared > 0.55 {
		t.Errorf("fixed shared fraction = %.2f, expected misalignment below 0.55", fixedShared)
	}
	if rabinShared <= fixedShared {
		t.Errorf("rabin (%.2f) should beat fixed (%.2f) after insertion", rabinShared, fixedShared)
	}
}

// TestRabinDedupOnRepeatedContent checks that identical regions produce
// identical chunks so a content-addressed store dedups them.
func TestRabinDedupOnRepeatedContent(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	block := randBytes(rng, 1<<16)
	doubled := append(append([]byte{}, block...), block...)
	r := NewRabin(2048)
	single := chunkHashes(r.Split(block))
	both := chunkHashes(r.Split(doubled))
	// The doubled stream should introduce only a handful of new chunks at
	// the junction.
	extra := 0
	for h := range both {
		if !single[h] {
			extra++
		}
	}
	if extra > 4 {
		t.Fatalf("doubled content introduced %d new unique chunks, want <= 4", extra)
	}
}

func TestQuickFixedRoundTrip(t *testing.T) {
	f := NewFixed(37)
	err := quick.Check(func(data []byte) bool {
		chunks := f.Split(data)
		var buf bytes.Buffer
		for _, c := range chunks {
			buf.Write(c.Data)
		}
		return bytes.Equal(buf.Bytes(), data)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestQuickRabinRoundTrip(t *testing.T) {
	r := NewRabin(256)
	err := quick.Check(func(data []byte) bool {
		chunks := r.Split(data)
		var buf bytes.Buffer
		var next int64
		for _, c := range chunks {
			if c.Offset != next {
				return false
			}
			buf.Write(c.Data)
			next += int64(len(c.Data))
		}
		return bytes.Equal(buf.Bytes(), data)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFixedSplit(b *testing.B) {
	data := randBytes(rand.New(rand.NewSource(9)), 1<<20)
	f := NewFixed(4096)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Split(data)
	}
}

func BenchmarkRabinSplit(b *testing.B) {
	data := randBytes(rand.New(rand.NewSource(10)), 1<<20)
	r := NewRabin(4096)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Split(data)
	}
}
