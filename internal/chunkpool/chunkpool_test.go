package chunkpool

import (
	"bytes"
	"io"
	"runtime"
	"testing"
)

// sliceReader yields data in deliberately small, non-chunk-aligned reads so
// Copy exercises its loop rather than a single pass.
type sliceReader struct {
	data []byte
	step int
}

func (r *sliceReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := r.step
	if n > len(r.data) {
		n = len(r.data)
	}
	if n > len(p) {
		n = len(p)
	}
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

func TestCopy(t *testing.T) {
	data := make([]byte, 3*Size+1234)
	for i := range data {
		data[i] = byte(i * 31)
	}
	var dst bytes.Buffer
	n, err := Copy(&dst, &sliceReader{data: append([]byte(nil), data...), step: 7919})
	if err != nil {
		t.Fatalf("Copy: %v", err)
	}
	if n != int64(len(data)) {
		t.Fatalf("Copy wrote %d bytes, want %d", n, len(data))
	}
	if !bytes.Equal(dst.Bytes(), data) {
		t.Fatal("Copy corrupted data")
	}
}

func TestGetPutSize(t *testing.T) {
	b := Get()
	if len(*b) != Size {
		t.Fatalf("Get returned %d-byte chunk, want %d", len(*b), Size)
	}
	Put(b)
	short := make([]byte, 10)
	Put(&short) // must be dropped, not pooled
	b2 := Get()
	if len(*b2) != Size {
		t.Fatalf("Get after undersized Put returned %d-byte chunk, want %d", len(*b2), Size)
	}
	Put(b2)
}

// TestWarmPathZeroAllocs is the satellite gate: once the pool is warm, a
// chunk round-trip allocates nothing.
func TestWarmPathZeroAllocs(t *testing.T) {
	Put(Get()) // warm the pool
	allocs := testing.AllocsPerRun(200, func() {
		b := Get()
		(*b)[0] = 1
		Put(b)
	})
	if allocs != 0 {
		t.Fatalf("warm Get/Put allocates %v objects per op, want 0", allocs)
	}
}

func BenchmarkWarmCopy(b *testing.B) {
	src := make([]byte, Size)
	b.SetBytes(Size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Copy(io.Discard, bytes.NewReader(src)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBufferMatchesBytesReader reads a Buffer of a few chunks and a short
// tail at offsets and lengths on both sides of every chunk boundary, past
// the end and before the start, and requires what bytes.Reader returns for
// the same bytes: the count, the bytes and whether it failed.
func TestBufferMatchesBytesReader(t *testing.T) {
	for _, size := range []int{0, 1, Size - 1, Size, 3*Size + 1234} {
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(i * 31)
		}
		b, err := ReadFull(&sliceReader{data: append([]byte(nil), data...), step: 7919}, int64(size))
		if err != nil {
			t.Fatalf("size %d: ReadFull: %v", size, err)
		}
		want := bytes.NewReader(data)
		var offs []int64
		for _, edge := range []int64{0, Size, 2 * Size, 3 * Size, int64(size)} {
			offs = append(offs, edge-1, edge, edge+1, edge+Size/2)
		}
		for _, off := range offs {
			for _, n := range []int{0, 1, 100, Size - 1, Size, Size + 1, 2*Size + 7, size + 5} {
				got, wantBuf := make([]byte, n), make([]byte, n)
				gn, gerr := b.ReadAt(got, off)
				wn, werr := want.ReadAt(wantBuf, off)
				if gn != wn || (gerr == nil) != (werr == nil) || !bytes.Equal(got[:gn], wantBuf[:wn]) {
					t.Fatalf("size %d: ReadAt(%d bytes, %d) = %d, %v; bytes.Reader %d, %v", size, n, off, gn, gerr, wn, werr)
				}
				if werr == io.EOF && gerr != io.EOF {
					t.Fatalf("size %d: ReadAt(%d bytes, %d) error %v, want io.EOF", size, n, off, gerr)
				}
			}
		}
		b.Release()
		if n, err := b.ReadAt(make([]byte, 1), 0); n != 0 || err != io.EOF {
			t.Fatalf("size %d: ReadAt after Release = %d, %v; want 0, io.EOF", size, n, err)
		}
	}
}

// TestReadFullShort: a reader that ends early fails with io.EOF before its
// first byte and io.ErrUnexpectedEOF after it, a chunk boundary included.
func TestReadFullShort(t *testing.T) {
	for _, tc := range []struct {
		sent int
		want error
	}{{0, io.EOF}, {1, io.ErrUnexpectedEOF}, {Size, io.ErrUnexpectedEOF}, {Size + 1, io.ErrUnexpectedEOF}} {
		b, err := ReadFull(bytes.NewReader(make([]byte, tc.sent)), 2*Size)
		if b != nil || err != tc.want {
			t.Fatalf("%d of %d bytes sent: %v, %v; want nil, %v", tc.sent, 2*Size, b, err, tc.want)
		}
	}
}

// TestReadFullClaimBounded: a claimed length with a few bytes behind it
// costs the receiver what was sent, rounded up to a chunk, not the claim.
func TestReadFullClaimBounded(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFull(bytes.NewReader(make([]byte, 10)), 1<<40)
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("error = %v, want io.ErrUnexpectedEOF", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 2*Size {
		t.Fatalf("a 1 TiB claim with 10 bytes behind it allocated %d bytes", grew)
	}
}

// raceEnabled is set by a race-only file: under the race detector a
// sync.Pool drops a quarter of what is put, so reuse is not counted there.
var raceEnabled bool

// TestBufferReusesReleasedChunks: once a Buffer's chunks are released, the
// next ReadFull of the same length takes them from the pool and allocates
// only its chunk list. It runs on one P, where the pool hands back what
// was put.
func TestBufferReusesReleasedChunks(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops items at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	data := make([]byte, 4*Size+5)
	fill := func() {
		b, err := ReadFull(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		b.Release()
	}
	fill()
	// The bytes.Reader, the Buffer and its chunk list, grown by append to
	// 1, 2, 4 and 8 pointers: 6 objects. Fresh chunks would add 5.
	if allocs := testing.AllocsPerRun(50, fill); allocs > 6 {
		t.Fatalf("a warm ReadFull of %d bytes allocates %v objects, want no chunks", len(data), allocs)
	}
}
