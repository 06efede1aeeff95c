// Package catalog defines the synthetic evaluation workload: an
// Ubuntu-like package universe, deterministic file-content generation, and
// the VMI templates of the paper's evaluation (the 19 images of Table II,
// the 4-image subset of Fig. 3a/4a, and the 40 successive IDE builds of
// Fig. 3c).
//
// # Scale
//
// Paper images are ≈2 GB with ≈75–104k files. The workload here is
// generated at 1/ByteScale of the byte volume and 1/FileScale of the file
// count; all sizes recorded in package metadata remain at paper scale so
// the simio cost model and the reported figures stay in paper units.
//
// # Content classes
//
// Three content classes drive the Fig. 3 storage shape (Sec. VI-B):
// package payload (deterministic per name@version — dedupable), system
// churn (unique per image instance — only discardable semantically), and
// user data (preserved verbatim by every system).
package catalog

import (
	"encoding/binary"
	"fmt"
)

const (
	// ByteScale is the paper-bytes : real-bytes ratio of generated content.
	ByteScale = 1024
	// FileScale is the paper-files : real-files ratio.
	FileScale = 64
	// ClusterSize is the vdisk cluster / filesystem block size used for
	// generated images (a 64 KiB qcow2 cluster at 1/256 scale; small blocks
	// keep per-file fragmentation overhead near real-filesystem levels).
	ClusterSize = 256
	// CompressibleFraction is the fraction of generated bytes drawn from
	// highly compressible text; tuned so whole-image gzip lands near the
	// paper's ≈2.8x ratio (41.81 GB → 15 GB in Fig. 3b).
	CompressibleFraction = 0.60
)

// Real converts paper-scale bytes to generated (real) bytes.
func Real(paperBytes int64) int64 { return paperBytes / ByteScale }

// Paper converts generated bytes back to paper-scale bytes.
func Paper(realBytes int64) int64 { return realBytes * ByteScale }

// RealFiles converts a paper-scale file count to a generated count
// (at least 1 for non-zero inputs).
func RealFiles(paperFiles int) int {
	if paperFiles <= 0 {
		return 0
	}
	n := paperFiles / FileScale
	if n < 1 {
		n = 1
	}
	return n
}

// PaperFiles converts a generated file count to paper scale.
func PaperFiles(realFiles int) int { return realFiles * FileScale }

// --- deterministic generation ---

// splitmix64 is the SplitMix64 mixing function.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	z := x
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// rng is a tiny deterministic generator seeded from a string and salts.
type rng struct{ state uint64 }

func newRNG(seed uint64, salts ...uint64) *rng {
	s := seed
	for _, x := range salts {
		s = splitmix64(s ^ x)
	}
	return &rng{state: s}
}

func seedString(s string) uint64 {
	var h uint64 = 0xcbf29ce484222325
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

func (r *rng) next() uint64 {
	r.state = splitmix64(r.state)
	return r.state
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// phrase pool for compressible content: log-like lines that gzip very well.
var phrases = []string{
	"INFO  startup sequence completed without errors in module ",
	"DEBUG cache entry refreshed for key /var/lib/service/state ",
	"WARN  retrying connection to upstream endpoint attempt ",
	"configuration value inherited from default profile section ",
	"NOTICE scheduled maintenance window acknowledged by agent ",
}

// GenContent produces n deterministic bytes for the given seed, mixing
// compressible text (CompressibleFraction of the stream) with
// incompressible pseudo-random bytes, in interleaved runs so both gzip and
// chunk-level dedup see realistic structure.
func GenContent(seed uint64, n int) []byte {
	if n <= 0 {
		return nil
	}
	out := make([]byte, 0, n)
	r := newRNG(seed)
	line := 0
	for len(out) < n {
		runLen := 256 + r.intn(768)
		if len(out)+runLen > n {
			runLen = n - len(out)
		}
		if float64(r.intn(1000))/1000 < CompressibleFraction {
			// Compressible run: repeated log-like lines.
			ph := phrases[r.intn(len(phrases))]
			for len(out) < n && runLen > 0 {
				s := fmt.Sprintf("%s%06d\n", ph, line)
				line++
				if len(s) > runLen {
					s = s[:runLen]
				}
				out = append(out, s...)
				runLen -= len(s)
			}
		} else {
			// Incompressible run: raw generator output.
			var word [8]byte
			for runLen > 0 && len(out) < n {
				binary.LittleEndian.PutUint64(word[:], r.next())
				take := 8
				if take > runLen {
					take = runLen
				}
				if len(out)+take > n {
					take = n - len(out)
				}
				out = append(out, word[:take]...)
				runLen -= take
			}
		}
	}
	return out
}

// splitSizes deterministically partitions total bytes across n files with
// a skewed distribution (a few large files, many small ones), matching how
// real packages lay out payloads.
func splitSizes(seed uint64, total int64, n int) []int64 {
	if n <= 0 {
		return nil
	}
	r := newRNG(seed, 0x517e5)
	weights := make([]int64, n)
	var sum int64
	for i := range weights {
		w := int64(1 + r.intn(4))
		if r.intn(8) == 0 {
			w *= 16 // occasional large file
		}
		weights[i] = w
		sum += w
	}
	out := make([]int64, n)
	var used int64
	for i, w := range weights {
		out[i] = total * w / sum
		used += out[i]
	}
	out[n-1] += total - used // remainder to the last file
	return out
}
