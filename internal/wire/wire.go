// Package wire defines the Expelliarmus network wire protocol shared by
// the repository server (internal/server) and its client
// (internal/client): the streaming image envelope that carries a VMI
// upload, the header names and error-kind table of the streaming
// protocol, and the JSON bodies only the server produces. The result
// bodies an in-process call returns too (publish, retrieve, sync, vacuum)
// are declared in internal/api and aliased here. The package is plain
// data: it imports what an image value needs and nothing of the
// repository behind the server (TestImportLayers pins that).
//
// The image envelope is designed so both sides can stream it:
//
//	magic "EXPWIR1\n"            (8 bytes)
//	header length, uint32 LE     (4 bytes)
//	header JSON                  (ImageHeader: name, base attrs,
//	                              primaries, disk byte count)
//	disk bytes                   (exactly ImageHeader.DiskBytes, the
//	                              image's qcow2-like serialized form)
//
// The sender produces the disk bytes with Disk.WriteTo — no whole-image
// buffer on the way out. The receiver must materialize the disk section
// once (publish mounts and mutates the image, so it needs random
// access), but hands it to vdisk.DeserializeLazy so clusters are
// directory-backed rather than copied again; the base image then streams
// into the blob store via the repository's PutBaseReader without a
// second materialization.
package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"expelliarmus/internal/api"
	"expelliarmus/internal/pkgmeta"
	"expelliarmus/internal/vdisk"
	"expelliarmus/internal/vmi"
)

// Magic opens every image envelope.
const Magic = "EXPWIR1\n"

// MaxHeaderBytes bounds the JSON header so a corrupt or hostile length
// prefix cannot ask the receiver to allocate gigabytes. It is the cap on
// every JSON value a peer sends ahead of validation (the server applies it
// to an assemble request's body as well).
const MaxHeaderBytes = 1 << 20

// maxDiskPrealloc is the most a header's DiskBytes claim may allocate
// before the body bytes backing it have arrived.
const maxDiskPrealloc = 64 << 20

// maxVirtualBytes bounds the virtual size an uploaded disk may declare. A
// sparse image needs only its L1 table present, so a few kilobytes can
// claim hundreds of thousands of times their length, and everything the
// guest filesystem mount sizes (block bitmap, inode table) follows the
// claim, not the bytes sent. The catalog's images are under 10 MB virtual
// and the benchmark's bulk images about 50 MB.
const maxVirtualBytes = 1 << 30

// ImageHeader is the metadata section of an image envelope.
type ImageHeader struct {
	Name      string
	Base      pkgmeta.BaseAttrs
	Primaries []string
	// DiskBytes is the exact length of the disk section that follows.
	DiskBytes int64
	// Tenant and ExpiresAt carry the publish's lifecycle options: the
	// quota account to charge and the Unix-seconds expiry timestamp
	// (zero = never). Omitted on the wire when unset, so envelopes from
	// older clients decode identically.
	Tenant    string `json:",omitempty"`
	ExpiresAt int64  `json:",omitempty"`
}

// PublishMeta is the lifecycle metadata riding alongside an image upload:
// the tenant to charge for the stored bytes and the optional expiry
// timestamp (Unix seconds; zero = never expires).
type PublishMeta = api.PublishOptions

// WriteImage encodes img as one image envelope on w, streaming the disk
// section straight from the virtual disk.
func WriteImage(w io.Writer, img *vmi.Image) error {
	return WriteImageMeta(w, img, PublishMeta{})
}

// WriteImageMeta is WriteImage with lifecycle metadata in the header.
func WriteImageMeta(w io.Writer, img *vmi.Image, meta PublishMeta) error {
	hdr := ImageHeader{
		Name:      img.Name,
		Base:      img.Base,
		Primaries: img.Primaries,
		DiskBytes: img.Disk.SerializedBytes(),
		Tenant:    meta.Tenant,
		ExpiresAt: meta.ExpiresAt,
	}
	hb, err := json.Marshal(hdr)
	if err != nil {
		return fmt.Errorf("wire: encode header: %w", err)
	}
	if len(hb) > MaxHeaderBytes {
		return fmt.Errorf("wire: header %d bytes exceeds limit %d", len(hb), MaxHeaderBytes)
	}
	var pre [12]byte
	copy(pre[:8], Magic)
	binary.LittleEndian.PutUint32(pre[8:], uint32(len(hb)))
	if _, err := w.Write(pre[:]); err != nil {
		return fmt.Errorf("wire: write envelope: %w", err)
	}
	if _, err := w.Write(hb); err != nil {
		return fmt.Errorf("wire: write header: %w", err)
	}
	n, err := img.Disk.WriteTo(w)
	if err != nil {
		return fmt.Errorf("wire: write disk: %w", err)
	}
	if n != hdr.DiskBytes {
		return fmt.Errorf("wire: disk wrote %d bytes, header promised %d", n, hdr.DiskBytes)
	}
	return nil
}

// ReadImage decodes one image envelope from r into a VMI. The disk
// section is read into one owned buffer — the single materialization the
// receiving side needs for random access — and mounted lazily over it.
func ReadImage(r io.Reader) (*vmi.Image, error) {
	img, _, err := ReadImageMeta(r)
	return img, err
}

// ReadImageMeta is ReadImage plus the envelope's lifecycle metadata.
func ReadImageMeta(r io.Reader) (*vmi.Image, PublishMeta, error) {
	var pre [12]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return nil, PublishMeta{}, fmt.Errorf("wire: read envelope: %w", err)
	}
	if string(pre[:8]) != Magic {
		return nil, PublishMeta{}, fmt.Errorf("wire: bad magic %q", pre[:8])
	}
	hlen := binary.LittleEndian.Uint32(pre[8:])
	if hlen == 0 || hlen > MaxHeaderBytes {
		return nil, PublishMeta{}, fmt.Errorf("wire: header length %d out of range", hlen)
	}
	hb := make([]byte, hlen)
	if _, err := io.ReadFull(r, hb); err != nil {
		return nil, PublishMeta{}, fmt.Errorf("wire: read header: %w", err)
	}
	var hdr ImageHeader
	if err := json.Unmarshal(hb, &hdr); err != nil {
		return nil, PublishMeta{}, fmt.Errorf("wire: decode header: %w", err)
	}
	if hdr.Name == "" {
		return nil, PublishMeta{}, fmt.Errorf("wire: envelope names no image")
	}
	if hdr.DiskBytes < 0 {
		return nil, PublishMeta{}, fmt.Errorf("wire: negative disk length %d", hdr.DiskBytes)
	}
	if hdr.ExpiresAt < 0 {
		return nil, PublishMeta{}, fmt.Errorf("wire: negative expiry timestamp %d", hdr.ExpiresAt)
	}
	buf, err := readDisk(r, hdr.DiskBytes)
	if err != nil {
		return nil, PublishMeta{}, fmt.Errorf("wire: read disk (%d bytes): %w", hdr.DiskBytes, err)
	}
	disk, err := vdisk.DeserializeLazy(hdr.Name, bytes.NewReader(buf), hdr.DiskBytes)
	if err != nil {
		return nil, PublishMeta{}, fmt.Errorf("wire: open disk: %w", err)
	}
	if disk.VirtualSize() > maxVirtualBytes {
		return nil, PublishMeta{}, fmt.Errorf("wire: disk declares virtual size %d, limit %d", disk.VirtualSize(), maxVirtualBytes)
	}
	img := &vmi.Image{
		Name:      hdr.Name,
		Base:      hdr.Base,
		Primaries: hdr.Primaries,
		Disk:      disk,
	}
	return img, PublishMeta{Tenant: hdr.Tenant, ExpiresAt: hdr.ExpiresAt}, nil
}

// readDisk reads the n-byte disk section into one owned buffer. n comes
// from the sender's header, so it is believed only up to maxDiskPrealloc:
// an honest image below the cap gets its single exact-sized allocation,
// while a larger claim grows the buffer by doubling as body bytes actually
// arrive — a lying header costs its sender real bytes, not the receiver
// its memory.
func readDisk(r io.Reader, n int64) ([]byte, error) {
	buf := make([]byte, min(n, maxDiskPrealloc))
	for filled := 0; ; {
		m, err := io.ReadFull(r, buf[filled:])
		if err != nil {
			return nil, err
		}
		if filled += m; int64(filled) == n {
			return buf, nil
		}
		buf = append(make([]byte, 0, min(n, 2*int64(filled))), buf...)
		buf = buf[:cap(buf)]
	}
}

// The bodies an in-process call returns as well: the server's reply to a
// publish, the X-Expel-Result trailer of a retrieval or assembly, the
// reply to a sync or compact, and the reply to a vacuum.
type (
	PublishResult  = api.PublishResult
	RetrieveResult = api.RetrieveResult
	SyncStats      = api.SyncStats
	VacuumStats    = api.VacuumStats
)

// Stats is the server's repository and cache statistics reply.
type Stats struct {
	Packages int
	Bases    int
	VMIs     int
	// TotalBytes is the live (deduplicated) repository size. On a
	// disk-backed server DiskBytes is the physical blob footprint —
	// including the garbage released images leave until compaction — and
	// DeadBytes the reclaimable part of it; both are zero for a
	// memory-backed server.
	TotalBytes int64
	DiskBytes  int64
	DeadBytes  int64

	CacheEnabled bool
	CacheHits    int64
	CacheMisses  int64
	CacheEntries int
	CacheBytes   int64

	// Tenants maps each tenant to its recorded live bytes (the quota
	// accounting publishes maintain). Nil when no tenant has ever been
	// charged.
	Tenants map[string]int64 `json:",omitempty"`

	// Repl carries replication state when the server participates in
	// snapshot + WAL shipping: as the writer (source of truth) or as a
	// follower serving the replicated read path. Nil on servers that do
	// neither (memory-backed daemons have no WAL to ship).
	Repl *ReplicationStats
}

// ReplCommit is the writer's current durable metadata position — the
// reply to GET /v1/repl/commit and the watermark a follower tails to.
// Epoch identifies the snapshot + WAL pair (it advances when the writer
// compacts); DurableBytes is the fsynced, commit-marker-covered WAL
// length within that epoch.
type ReplCommit struct {
	Epoch        uint64
	DurableBytes int64
}

// ReplicationStats is the replication section of a stats reply.
type ReplicationStats struct {
	// Role is "writer" or "follower".
	Role string
	// Epoch is the current snapshot/WAL epoch: the writer's own, or the
	// epoch the follower has applied up to.
	Epoch uint64
	// DurableBytes is the writer's durable WAL length. On a follower it
	// is the writer's position as of the last poll — the catch-up target.
	DurableBytes int64
	// AppliedBytes is how far into the epoch's WAL a follower has
	// applied (zero on writers).
	AppliedBytes int64
	// LagBytes is DurableBytes - AppliedBytes as of the follower's last
	// poll of the writer; zero on writers and on caught-up followers.
	LagBytes int64
	// Batches and Ops count what the follower has applied since it
	// started (zero on writers).
	Batches int64
	Ops     int64
	// WriterURL is the upstream a follower tails (empty on writers).
	WriterURL string
}

// AssembleRequest asks the server to build a VMI from stored packages
// (Algorithm 3 without a prior upload of this exact image).
type AssembleRequest struct {
	Name         string
	Primaries    []string
	UserDataFrom string
}
