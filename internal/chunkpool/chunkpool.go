// Package chunkpool provides the shared chunk buffers used by every
// streaming IO path: blobstore streaming puts, diskstore segment appends,
// vdisk serialization, the assembly pipeline's streaming copies, and the
// disk section of a received publish upload. All of them move data in
// Size-byte chunks drawn from one process-wide sync.Pool, so the
// steady-state allocation rate of a streaming transfer is zero no matter
// how many bytes flow through it — the property the flat-RSS retrieval
// gate depends on. The vdisk arena, which holds the clusters a disk
// writes, is cut from the same chunks: an assembly holds its disk's
// chunks until it releases the disk, and the next assembly takes them.
package chunkpool

import (
	"errors"
	"io"
	"sync"
)

// Size is the chunk granularity of every streaming path. It is the knob
// that bounds peak streaming memory: a copy holds at most one chunk at a
// time, so peak streaming RSS is Size × concurrent copies plus fixed
// per-image metadata. Two holders are the exception. A received upload's
// Buffer holds the whole disk section in chunks until the publish that
// reads it returns and releases them, so each publish in flight adds its
// section's length, rounded up to Size. An assembly's disk holds an arena
// chunk per Size bytes of clusters it wrote until the assembly has
// streamed the image and releases the disk. 128 KiB amortizes per-chunk
// call overhead while staying far below any interesting image size.
const Size = 128 << 10

var pool = sync.Pool{
	New: func() any {
		b := make([]byte, Size)
		return &b
	},
}

// Get returns a Size-byte chunk buffer. Return it with Put when done; the
// pointer indirection keeps the pool allocation-free on the warm path.
func Get() *[]byte {
	return pool.Get().(*[]byte)
}

// Put returns a chunk obtained from Get to the pool. Buffers of any other
// length are dropped rather than pooled.
func Put(b *[]byte) {
	if b == nil || len(*b) != Size {
		return
	}
	pool.Put(b)
}

// Copy streams src into dst through a pooled chunk, like io.Copy but with
// zero steady-state allocations. It deliberately does not use src's
// WriteTo or dst's ReadFrom shortcuts: those can materialize or alias the
// source's whole backing buffer, and every caller here wants strictly
// chunked movement.
func Copy(dst io.Writer, src io.Reader) (int64, error) {
	buf := Get()
	defer Put(buf)
	var written int64
	for {
		n, rerr := src.Read(*buf)
		if n > 0 {
			w, werr := dst.Write((*buf)[:n])
			written += int64(w)
			if werr != nil {
				return written, werr
			}
			if w != n {
				return written, io.ErrShortWrite
			}
		}
		if rerr == io.EOF {
			return written, nil
		}
		if rerr != nil {
			return written, rerr
		}
	}
}

// Buffer holds a byte sequence in pooled chunks: every chunk but the last
// is full. It serves random reads (io.ReaderAt, safe for concurrent use)
// until Release hands the chunks back to the pool. A Buffer that is never
// released leaves its chunks to the garbage collector.
type Buffer struct {
	chunks []*[]byte
	n      int64
}

// ReadFull reads exactly n bytes from r into a new Buffer. A chunk is taken
// only when the bytes before it have arrived, so a short r costs the
// receiver at most one chunk beyond what r sent, whatever n claims. The
// error is io.EOF only if r ended before its first byte and
// io.ErrUnexpectedEOF if it ended later; on any error the chunks taken are
// released.
func ReadFull(r io.Reader, n int64) (*Buffer, error) {
	b := &Buffer{}
	for b.n < n {
		c := Get()
		b.chunks = append(b.chunks, c)
		m, err := io.ReadFull(r, (*c)[:min(Size, n-b.n)])
		b.n += int64(m)
		if err != nil {
			if err == io.EOF && b.n > 0 {
				err = io.ErrUnexpectedEOF
			}
			b.Release()
			return nil, err
		}
	}
	return b, nil
}

// ReadAt reads len(p) bytes at off, across chunk boundaries as needed. Like
// bytes.Reader's, it fails on a negative offset and returns io.EOF with
// whatever it could read when the range runs past the end.
func (b *Buffer) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errors.New("chunkpool: negative offset")
	}
	if off >= b.n {
		return 0, io.EOF
	}
	n := 0
	for n < len(p) && off < b.n {
		i := off / Size
		m := copy(p[n:], (*b.chunks[i])[off-i*Size:min(Size, b.n-i*Size)])
		n += m
		off += int64(m)
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Release returns the chunks to the pool and empties b. No read of b may
// be in progress when it is called, because the pool's next Get hands the
// chunks out again; a read after it finds b empty and returns io.EOF.
func (b *Buffer) Release() {
	for _, c := range b.chunks {
		Put(c)
	}
	b.chunks, b.n = nil, 0
}
