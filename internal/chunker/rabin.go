package chunker

import "fmt"

// Rabin is a variable-size, content-defined chunker based on Rabin
// fingerprinting over a sliding window (Rabin 1981), as used by the
// variable-size chunking scheme evaluated by Jin et al. A chunk boundary is
// declared whenever the rolling fingerprint matches a mask-derived pattern,
// subject to minimum and maximum chunk-size bounds.
//
// Because boundaries depend only on window content, an insertion or
// deletion re-synchronises after at most one chunk: this is the property
// that lets variable-size dedup survive shifted data where fixed-size
// chunking does not.
type Rabin struct {
	window  int
	minSize int
	maxSize int
	avgSize int
	mask    uint64
	// outTable[b] removes byte b's contribution when it leaves the window.
	outTable [256]uint64
	// modTable reduces the fingerprint after the shift step.
	modTable [256]uint64
}

// Rabin polynomial: a fixed irreducible polynomial of degree 53, the same
// construction used by LBFS-style chunkers.
const rabinPoly uint64 = 0x3DA3358B4DC173

const rabinPolyDegree = 53

// NewRabin returns a content-defined chunker with the given average chunk
// size, which must be a power of two. Minimum and maximum chunk sizes are
// avg/4 and avg*4; the sliding window is 48 bytes.
func NewRabin(avgSize int) *Rabin {
	if avgSize <= 0 || avgSize&(avgSize-1) != 0 {
		panic(fmt.Sprintf("chunker: rabin average size %d must be a positive power of two", avgSize))
	}
	r := &Rabin{
		window:  48,
		minSize: avgSize / 4,
		maxSize: avgSize * 4,
		avgSize: avgSize,
		mask:    uint64(avgSize - 1),
	}
	if r.minSize < r.window {
		r.minSize = r.window
	}
	r.buildTables()
	return r
}

// polyMod returns p mod rabinPoly in GF(2).
func polyMod(p uint64) uint64 {
	for d := deg(p); d >= rabinPolyDegree; d = deg(p) {
		p ^= rabinPoly << uint(d-rabinPolyDegree)
	}
	return p
}

// polyMulMod returns (p*q) mod rabinPoly in GF(2).
func polyMulMod(p, q uint64) uint64 {
	var acc uint64
	for i := 0; q != 0; i++ {
		if q&1 != 0 {
			acc ^= shiftLeftMod(p, uint(i))
		}
		q >>= 1
	}
	return acc
}

// shiftLeftMod returns (p << n) mod rabinPoly, shifting one bit at a time to
// avoid overflow.
func shiftLeftMod(p uint64, n uint) uint64 {
	p = polyMod(p)
	for ; n > 0; n-- {
		p <<= 1
		p = polyMod(p)
	}
	return p
}

func deg(p uint64) int {
	d := -1
	for p != 0 {
		p >>= 1
		d++
	}
	return d
}

func (r *Rabin) buildTables() {
	// outTable[b] = b * x^(8*(window-1)) mod P: the current fingerprint
	// contribution of the byte about to slide out of the window, removed
	// just before the append step shifts the remaining bytes left.
	for b := 0; b < 256; b++ {
		r.outTable[b] = shiftLeftMod(uint64(b), uint(8*(r.window-1)))
	}
	// modTable folds the high byte produced by the append shift back into
	// the modulus.
	for b := 0; b < 256; b++ {
		r.modTable[b] = polyMod(uint64(b) << rabinPolyDegree)
	}
	_ = polyMulMod // retained for table cross-checks in tests
}

// Name implements Chunker.
func (r *Rabin) Name() string { return fmt.Sprintf("rabin-%d", r.avgSize) }

// Split implements Chunker.
func (r *Rabin) Split(data []byte) []Chunk {
	if len(data) == 0 {
		return nil
	}
	var out []Chunk
	start := 0
	for start < len(data) {
		end := r.nextBoundary(data[start:])
		out = append(out, Chunk{Offset: int64(start), Data: data[start : start+end]})
		start += end
	}
	return out
}

// nextBoundary returns the length of the next chunk starting at data[0].
func (r *Rabin) nextBoundary(data []byte) int {
	n := len(data)
	if n <= r.minSize {
		return n
	}
	limit := n
	if limit > r.maxSize {
		limit = r.maxSize
	}
	// Warm the window over the bytes immediately before the minimum size so
	// the fingerprint at position minSize reflects a full window.
	var fp uint64
	warmStart := r.minSize - r.window
	for i := warmStart; i < r.minSize; i++ {
		fp = r.append(fp, data[i])
	}
	for i := r.minSize; i < limit; i++ {
		fp = r.roll(fp, data[i-r.window], data[i])
		if fp&r.mask == r.mask {
			return i + 1
		}
	}
	return limit
}

// append shifts the fingerprint left by one byte and adds b.
func (r *Rabin) append(fp uint64, b byte) uint64 {
	top := byte(fp >> (rabinPolyDegree - 8))
	fp = ((fp << 8) | uint64(b)) & ((1 << rabinPolyDegree) - 1)
	return fp ^ r.modTable[top]
}

// roll slides the window: removes out's contribution and appends in.
func (r *Rabin) roll(fp uint64, out, in byte) uint64 {
	fp ^= r.outTable[out]
	return r.append(fp, in)
}
