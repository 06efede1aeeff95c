// Package simio provides a deterministic storage-device and appliance cost
// model for the Expelliarmus reproduction.
//
// The paper reports wall-clock publish and retrieval times measured on the
// authors' testbed (quad-core host, external SSD, libguestfs appliance).
// Re-measuring wall-clock time on different hardware against a synthetic,
// down-scaled image set would not reproduce the *shape* of those results, so
// instead every store in this repository charges its primitive operations
// (launching a guestfs handle, opening a file, streaming bytes, touching a
// database page, installing a package, ...) to a Meter using the closed-form
// costs defined here. The resulting "seconds" are deterministic and directly
// comparable with the paper's figures.
//
// Profiles are expressed at paper scale (real gigabyte images, real
// 75k-file filesystems). Because the synthetic workload is generated at a
// reduced byte and file-count scale, Profile.Scaled derives an equivalent
// profile such that charging the *scaled* byte and file counts yields
// paper-scale durations.
package simio

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Phase labels a component of a publish or retrieval operation. The phases
// mirror the decomposition used by the paper in Fig. 5a (base image copy,
// handle creation, VMI reset, package import) plus the publish-side phases
// discussed in Sec. VI-C.
type Phase string

// Phases charged by the stores in this repository.
const (
	PhaseLaunch     Phase = "launch"     // guestfs handle creation
	PhaseCopy       Phase = "copy"       // base image copy from repository
	PhaseReset      Phase = "reset"      // virt-sysprep style VMI reset
	PhaseImport     Phase = "import"     // package import + installation
	PhaseExport     Phase = "export"     // package repack + export to repo
	PhaseScan       Phase = "scan"       // filesystem scan / indexing
	PhaseHash       Phase = "hash"       // content hashing for dedup
	PhaseDB         Phase = "db"         // metadata / small-file DB access
	PhaseStore      Phase = "store"      // writing blobs into the repository
	PhaseFetch      Phase = "fetch"      // reading blobs out of the repository
	PhaseSimilarity Phase = "similarity" // semantic similarity computation
	PhaseCleanup    Phase = "cleanup"    // package removal and cache cleanup
	PhaseCompress   Phase = "compress"   // gzip compression
	PhaseDecompress Phase = "decompress" // gzip decompression
)

// Profile describes the modeled testbed. All throughputs are in bytes per
// second and all latencies are per-operation. The zero value is unusable;
// construct profiles with PaperProfile (optionally followed by Scaled).
type Profile struct {
	// SeqReadBps is the sequential read bandwidth of the repository disk.
	SeqReadBps float64
	// SeqWriteBps is the sequential write bandwidth of the repository disk.
	SeqWriteBps float64
	// FileOpenLat is the per-file metadata overhead (open/close/stat) paid
	// when a store traverses or writes individual files.
	FileOpenLat time.Duration
	// SmallFileReadLat is the per-file penalty for reading small files from
	// a filesystem-backed repository (the Mirage weakness the paper
	// discusses: "inefficient in reading small files below 1MB").
	SmallFileReadLat time.Duration
	// SmallFileSize is the threshold below which a file counts as small.
	SmallFileSize int64
	// DBPageLat is the cost of one database page access; small files served
	// from the Hemera database pay this instead of SmallFileReadLat.
	DBPageLat time.Duration
	// DBPageSize is the modeled database page size.
	DBPageSize int64
	// LaunchLat is the cost of configuring and launching a guestfs handle.
	LaunchLat time.Duration
	// InstallBps is the package installation throughput in installed bytes
	// per second (unpack + configure through the guest package manager).
	InstallBps float64
	// RepackBps is the dpkg-repack style throughput for recreating a binary
	// package from installed files (the dominant Expelliarmus publish cost).
	RepackBps float64
	// PkgOverheadLat is the fixed per-package cost of invoking the package
	// manager (repack or install), independent of package size.
	PkgOverheadLat time.Duration
	// HashBps is the content hashing throughput used by dedup stores.
	HashBps float64
	// FileResetLat is the per-file cost of the virt-sysprep style reset.
	FileResetLat time.Duration
	// GzipBps and GunzipBps are the gzip (de)compression throughputs.
	GzipBps   float64
	GunzipBps float64
	// SimVertexLat is the per-vertex cost of semantic similarity
	// computation; the paper reports <100ms per VMI in total.
	SimVertexLat time.Duration
}

// PaperProfile returns the cost model calibrated against the testbed numbers
// reported in Sec. VI of the paper (the calibration anchors: Mini publish
// 39.5 s, Mini retrieval 24.6 s, Desktop retrieval 102.3 s, Mirage
// retrieval up to ~500 s, ...).
func PaperProfile() Profile {
	return Profile{
		SeqReadBps:       250e6,
		SeqWriteBps:      80e6,
		FileOpenLat:      2 * time.Millisecond,
		SmallFileReadLat: 4 * time.Millisecond,
		SmallFileSize:    1 << 20,
		DBPageLat:        150 * time.Microsecond,
		DBPageSize:       4096,
		LaunchLat:        5500 * time.Millisecond,
		InstallBps:       5.5e6,
		RepackBps:        2e6,
		PkgOverheadLat:   280 * time.Millisecond,
		HashBps:          400e6,
		FileResetLat:     100 * time.Microsecond,
		GzipBps:          60e6,
		GunzipBps:        180e6,
		SimVertexLat:     40 * time.Microsecond,
	}
}

// Scaled derives a profile for a workload generated at 1/byteScale of the
// paper's byte volume and 1/fileScale of its file counts, so that charging
// scaled quantities yields paper-scale durations: throughputs are divided
// by byteScale and per-file (and per-DB-access, which is dominated by
// per-file small-blob traffic) latencies multiplied by fileScale. The
// small-file threshold scales by byteScale/fileScale because one generated
// file stands for fileScale paper files and is therefore byteScale/fileScale
// times smaller than the paper file it represents.
func (p Profile) Scaled(byteScale, fileScale float64) Profile {
	if byteScale <= 0 || fileScale <= 0 {
		panic("simio: scale factors must be positive")
	}
	q := p
	q.SeqReadBps /= byteScale
	q.SeqWriteBps /= byteScale
	q.InstallBps /= byteScale
	q.RepackBps /= byteScale
	q.HashBps /= byteScale
	q.GzipBps /= byteScale
	q.GunzipBps /= byteScale
	q.FileOpenLat = scaleDur(p.FileOpenLat, fileScale)
	q.SmallFileReadLat = scaleDur(p.SmallFileReadLat, fileScale)
	q.FileResetLat = scaleDur(p.FileResetLat, fileScale)
	q.DBPageLat = scaleDur(p.DBPageLat, fileScale)
	q.SmallFileSize = int64(float64(p.SmallFileSize) / byteScale * fileScale)
	return q
}

func scaleDur(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) * f)
}

// Device evaluates operation costs under a Profile. A Device is stateless
// and safe for concurrent use.
type Device struct {
	prof Profile
}

// NewDevice returns a Device using the given profile.
func NewDevice(p Profile) *Device { return &Device{prof: p} }

// Profile returns the device's profile.
func (d *Device) Profile() Profile { return d.prof }

func bytesCost(n int64, bps float64) time.Duration {
	if n <= 0 || bps <= 0 {
		return 0
	}
	return time.Duration(float64(n) / bps * float64(time.Second))
}

// ReadCost is the cost of sequentially reading n bytes.
func (d *Device) ReadCost(n int64) time.Duration { return bytesCost(n, d.prof.SeqReadBps) }

// WriteCost is the cost of sequentially writing n bytes.
func (d *Device) WriteCost(n int64) time.Duration { return bytesCost(n, d.prof.SeqWriteBps) }

// OpenCost is the metadata cost of touching n files.
func (d *Device) OpenCost(n int) time.Duration {
	return time.Duration(n) * d.prof.FileOpenLat
}

// SmallFileReadCost is the cost of reading n files of size bytes each from a
// filesystem-backed repository, including the small-file penalty when the
// size is below the profile threshold.
func (d *Device) SmallFileReadCost(size int64) time.Duration {
	c := d.ReadCost(size)
	if size < d.prof.SmallFileSize {
		c += d.prof.SmallFileReadLat
	} else {
		c += d.prof.FileOpenLat
	}
	return c
}

// DBCost is the cost of accessing n bytes through the metadata database,
// charged per page.
func (d *Device) DBCost(n int64) time.Duration {
	if n <= 0 {
		return d.prof.DBPageLat
	}
	pages := (n + d.prof.DBPageSize - 1) / d.prof.DBPageSize
	return time.Duration(pages) * d.prof.DBPageLat
}

// LaunchCost is the cost of creating a guestfs handle.
func (d *Device) LaunchCost() time.Duration { return d.prof.LaunchLat }

// InstallCost is the cost of installing packages totalling n installed
// bytes across count packages.
func (d *Device) InstallCost(n int64, count int) time.Duration {
	return bytesCost(n, d.prof.InstallBps) + time.Duration(count)*d.prof.PkgOverheadLat
}

// RepackCost is the cost of recreating binary packages from n installed
// bytes across count packages.
func (d *Device) RepackCost(n int64, count int) time.Duration {
	return bytesCost(n, d.prof.RepackBps) + time.Duration(count)*d.prof.PkgOverheadLat
}

// HashCost is the cost of hashing n bytes.
func (d *Device) HashCost(n int64) time.Duration { return bytesCost(n, d.prof.HashBps) }

// ResetCost is the cost of a virt-sysprep style reset over n files.
func (d *Device) ResetCost(files int) time.Duration {
	return time.Duration(files) * d.prof.FileResetLat
}

// GzipCost is the cost of compressing n bytes.
func (d *Device) GzipCost(n int64) time.Duration { return bytesCost(n, d.prof.GzipBps) }

// GunzipCost is the cost of decompressing n (compressed) bytes.
func (d *Device) GunzipCost(n int64) time.Duration { return bytesCost(n, d.prof.GunzipBps) }

// SimilarityCost is the cost of comparing a semantic graph with v vertices
// against the master graph.
func (d *Device) SimilarityCost(v int) time.Duration {
	return time.Duration(v) * d.prof.SimVertexLat
}

// PhaseCost pairs a phase with its accumulated duration.
type PhaseCost struct {
	Phase Phase
	Cost  time.Duration
}

// Meter accumulates operation costs by phase. The zero value is ready to
// use. Meters are safe for concurrent use: charges are commutative sums,
// so a meter shared by the worker pool of a parallel publish or retrieval
// accumulates exactly the same totals as the sequential loop, regardless
// of interleaving.
type Meter struct {
	mu     sync.Mutex
	phases map[Phase]time.Duration
	total  time.Duration
}

// Charge adds d to the given phase.
func (m *Meter) Charge(ph Phase, d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("simio: negative charge %v for phase %q", d, ph))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.phases == nil {
		m.phases = make(map[Phase]time.Duration)
	}
	m.phases[ph] += d
	m.total += d
}

// Total returns the sum of all charges.
func (m *Meter) Total() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total
}

// Seconds returns the total as float64 seconds.
func (m *Meter) Seconds() float64 { return m.Total().Seconds() }

// Phase returns the accumulated cost of one phase.
func (m *Meter) Phase(ph Phase) time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.phases[ph]
}

// Breakdown returns all phases with non-zero cost, ordered by descending
// cost (ties broken by phase name for determinism).
func (m *Meter) Breakdown() []PhaseCost {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]PhaseCost, 0, len(m.phases))
	for ph, c := range m.phases {
		out = append(out, PhaseCost{Phase: ph, Cost: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cost != out[j].Cost {
			return out[i].Cost > out[j].Cost
		}
		return out[i].Phase < out[j].Phase
	})
	return out
}

// Reset clears all charges.
func (m *Meter) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.phases = nil
	m.total = 0
}

// Snapshot returns a copy of the per-phase totals.
func (m *Meter) Snapshot() map[Phase]time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[Phase]time.Duration, len(m.phases))
	for ph, c := range m.phases {
		out[ph] = c
	}
	return out
}

// String renders the meter as "total (phase=dur, ...)".
func (m *Meter) String() string {
	bd := m.Breakdown()
	parts := make([]string, len(bd))
	for i, pc := range bd {
		parts[i] = fmt.Sprintf("%s=%.2fs", pc.Phase, pc.Cost.Seconds())
	}
	return fmt.Sprintf("%.2fs (%s)", m.Seconds(), strings.Join(parts, ", "))
}
