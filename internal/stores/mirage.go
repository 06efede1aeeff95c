package stores

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"path"
	"sync"

	"expelliarmus/internal/api"
	"expelliarmus/internal/blobstore"
	"expelliarmus/internal/catalog"
	"expelliarmus/internal/fstree"
	"expelliarmus/internal/metadb"
	"expelliarmus/internal/simio"
	"expelliarmus/internal/vdisk"
	"expelliarmus/internal/vmi"
)

// manifestEntry is one file in a Mirage/Hemera image manifest.
type manifestEntry struct {
	path   string
	size   int64
	dir    bool
	inDB   bool // Hemera: content lives in the database
	blobID blobstore.ID
}

func encodeManifest(virtualSize int64, meta imageMeta, entries []manifestEntry) []byte {
	var buf bytes.Buffer
	var tmp [binary.MaxVarintLen64]byte
	wU := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		buf.Write(tmp[:n])
	}
	wS := func(s string) {
		wU(uint64(len(s)))
		buf.WriteString(s)
	}
	wU(uint64(virtualSize))
	for _, f := range meta.base {
		wS(f)
	}
	wU(uint64(len(meta.primaries)))
	for _, p := range meta.primaries {
		wS(p)
	}
	wU(uint64(len(entries)))
	for _, e := range entries {
		wS(e.path)
		wU(uint64(e.size))
		flags := byte(0)
		if e.dir {
			flags |= 1
		}
		if e.inDB {
			flags |= 2
		}
		buf.WriteByte(flags)
		buf.Write(e.blobID[:])
	}
	return buf.Bytes()
}

func decodeManifest(data []byte) (int64, imageMeta, []manifestEntry, error) {
	r := bytes.NewReader(data)
	rU := func() (uint64, error) { return binary.ReadUvarint(r) }
	rS := func() (string, error) {
		n, err := binary.ReadUvarint(r)
		if err != nil {
			return "", err
		}
		if n > uint64(r.Len()) {
			return "", fmt.Errorf("stores: manifest string overflow")
		}
		b := make([]byte, n)
		if n > 0 {
			if _, err := io.ReadFull(r, b); err != nil {
				return "", err
			}
		}
		return string(b), nil
	}
	var meta imageMeta
	vs, err := rU()
	if err != nil {
		return 0, meta, nil, err
	}
	for i := range meta.base {
		if meta.base[i], err = rS(); err != nil {
			return 0, meta, nil, err
		}
	}
	np, err := rU()
	if err != nil {
		return 0, meta, nil, err
	}
	for i := uint64(0); i < np; i++ {
		p, err := rS()
		if err != nil {
			return 0, meta, nil, err
		}
		meta.primaries = append(meta.primaries, p)
	}
	n, err := rU()
	if err != nil {
		return 0, meta, nil, err
	}
	entries := make([]manifestEntry, 0, n)
	for i := uint64(0); i < n; i++ {
		var e manifestEntry
		if e.path, err = rS(); err != nil {
			return 0, meta, nil, err
		}
		sz, err := rU()
		if err != nil {
			return 0, meta, nil, err
		}
		e.size = int64(sz)
		flags, err := r.ReadByte()
		if err != nil {
			return 0, meta, nil, err
		}
		e.dir = flags&1 != 0
		e.inDB = flags&2 != 0
		if _, err := io.ReadFull(r, e.blobID[:]); err != nil {
			return 0, meta, nil, err
		}
		entries = append(entries, e)
	}
	return int64(vs), meta, entries, nil
}

// Mirage implements IBM Mirage's MIF scheme (Reimer et al., Ammons et
// al.): images become structured data — a per-image manifest of files plus
// a content-addressed global store with file-level deduplication. Its
// publish cost is dominated by per-file indexing over the whole
// filesystem, and its retrieval re-reads every file individually from the
// store, paying the small-file penalty the paper highlights.
type Mirage struct {
	mu    sync.Mutex
	dev   *simio.Device
	blobs *blobstore.Store
	db    *metadb.DB
}

// NewMirage returns an empty Mirage store.
func NewMirage(dev *simio.Device) *Mirage {
	m := &Mirage{dev: dev, blobs: blobstore.New(), db: metadb.New()}
	m.db.CreateBucket("manifests")
	return m
}

// Name implements Store.
func (s *Mirage) Name() string { return "mirage" }

// indexImage walks the guest filesystem, deduplicating file contents into
// the blob store; shared by Mirage and Hemera (smallToDB toggles the
// hybrid behaviour).
func (s *Mirage) indexImage(img *vmi.Image, m *simio.Meter, smallToDB bool, small *metadb.Bucket) (int64, []manifestEntry, error) {
	fs, err := img.Mount()
	if err != nil {
		return 0, nil, err
	}
	var entries []manifestEntry
	prof := s.dev.Profile()
	err = fs.Walk("/", func(fi fstree.FileInfo) error {
		if fi.IsDir {
			entries = append(entries, manifestEntry{path: fi.Path, dir: true})
			return nil
		}
		data, err := fs.ReadFile(fi.Path)
		if err != nil {
			return err
		}
		// Per-file indexing: open + read + hash + dedup lookup.
		m.Charge(simio.PhaseScan, s.dev.OpenCost(1))
		m.Charge(simio.PhaseScan, s.dev.ReadCost(int64(len(data))))
		m.Charge(simio.PhaseHash, s.dev.HashCost(int64(len(data))))
		m.Charge(simio.PhaseDB, s.dev.DBCost(0))

		e := manifestEntry{path: fi.Path, size: fi.Size}
		if smallToDB && fi.Size < prof.SmallFileSize {
			e.inDB = true
			id := blobstore.Sum(data)
			e.blobID = id
			if _, ok := small.Get(id[:]); !ok {
				small.Put(id[:], data)
				m.Charge(simio.PhaseDB, s.dev.DBCost(int64(len(data))))
			}
		} else {
			id, fresh := s.blobs.Put(data)
			e.blobID = id
			if fresh {
				m.Charge(simio.PhaseStore, s.dev.WriteCost(int64(len(data))))
			}
		}
		entries = append(entries, e)
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	return img.Disk.VirtualSize(), entries, nil
}

// Publish implements Store.
func (s *Mirage) Publish(img *vmi.Image) (*api.PublishResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := &simio.Meter{}
	vs, entries, err := s.indexImage(img, m, false, nil)
	if err != nil {
		return nil, err
	}
	manifest := encodeManifest(vs, metaOf(img), entries)
	s.db.Bucket("manifests").Put([]byte(img.Name), manifest)
	m.Charge(simio.PhaseDB, s.dev.DBCost(int64(len(manifest))))
	return &api.PublishResult{Seconds: m.Seconds(), Phases: m.PhaseSeconds()}, nil
}

// restoreImage rebuilds a filesystem image from a manifest; fetchFile
// returns a file's contents and charges its read cost.
func restoreImage(name string, virtualSize int64, meta imageMeta, entries []manifestEntry,
	m *simio.Meter, dev *simio.Device,
	fetch func(e manifestEntry) ([]byte, error)) (*vmi.Image, error) {

	var files int
	for _, e := range entries {
		if !e.dir {
			files++
		}
	}
	disk := vdisk.New(name, virtualSize, catalog.ClusterSize)
	fs, err := fstree.Format(disk, uint32(files+files/4+640))
	if err != nil {
		return nil, err
	}
	var written int64
	for _, e := range entries {
		if e.dir {
			if err := fs.MkdirAll(e.path); err != nil {
				return nil, err
			}
			continue
		}
		data, err := fetch(e)
		if err != nil {
			return nil, err
		}
		if err := fs.MkdirAll(path.Dir(e.path)); err != nil {
			return nil, err
		}
		if err := fs.WriteFile(e.path, data); err != nil {
			return nil, err
		}
		written += int64(len(data))
	}
	// Writing the reconstructed image back out is sequential.
	m.Charge(simio.PhaseStore, dev.WriteCost(written))
	img := &vmi.Image{Name: name, Disk: disk}
	meta.apply(img)
	return img, nil
}

// Retrieve implements Store.
func (s *Mirage) Retrieve(name string) (*vmi.Image, *api.RetrieveResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	val, ok := s.db.Bucket("manifests").Get([]byte(name))
	if !ok {
		return nil, nil, fmt.Errorf("mirage: image %q not found", name)
	}
	m := &simio.Meter{}
	m.Charge(simio.PhaseDB, s.dev.DBCost(int64(len(val))))
	vs, meta, entries, err := decodeManifest(val)
	if err != nil {
		return nil, nil, err
	}
	img, err := restoreImage(name, vs, meta, entries, m, s.dev, func(e manifestEntry) ([]byte, error) {
		data, ok := s.blobs.Get(e.blobID)
		if !ok {
			return nil, fmt.Errorf("mirage: blob for %s missing", e.path)
		}
		// Mirage reads many individual files from a filesystem-backed
		// repository — the small-file penalty of Sec. VI-C.
		m.Charge(simio.PhaseFetch, s.dev.SmallFileReadCost(int64(len(data))))
		return data, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return img, &api.RetrieveResult{Seconds: m.Seconds(), Phases: m.PhaseSeconds()}, nil
}

// SizeBytes implements Store.
func (s *Mirage) SizeBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.blobs.TotalBytes() + s.db.SizeBytes()
}
