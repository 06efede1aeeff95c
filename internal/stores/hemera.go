package stores

import (
	"fmt"
	"sync"

	"expelliarmus/internal/api"
	"expelliarmus/internal/metadb"
	"expelliarmus/internal/simio"
	"expelliarmus/internal/vmi"
)

// Hemera implements Liu et al.'s declarative, data-centric scheme: like
// Mirage it treats images as structured data with file-level dedup, but it
// stores small files inside the metadata database and only large files on
// the filesystem-backed store. Per Sec. VI-C this "optimizes VMI retrieval
// as the database handles small files much faster than the file system".
type Hemera struct {
	mu     sync.Mutex
	dev    *simio.Device
	mirage *Mirage // reuses the indexing pipeline and large-file store
	small  *metadb.Bucket
}

// NewHemera returns an empty Hemera store.
func NewHemera(dev *simio.Device) *Hemera {
	m := NewMirage(dev)
	return &Hemera{dev: dev, mirage: m, small: m.db.CreateBucket("smallfiles")}
}

// Name implements Store.
func (s *Hemera) Name() string { return "hemera" }

// Publish implements Store.
func (s *Hemera) Publish(img *vmi.Image) (*api.PublishResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := &simio.Meter{}
	vs, entries, err := s.mirage.indexImage(img, m, true, s.small)
	if err != nil {
		return nil, err
	}
	manifest := encodeManifest(vs, metaOf(img), entries)
	s.mirage.db.Bucket("manifests").Put([]byte(img.Name), manifest)
	m.Charge(simio.PhaseDB, s.dev.DBCost(int64(len(manifest))))
	return &api.PublishResult{Seconds: m.Seconds(), Phases: m.PhaseSeconds()}, nil
}

// Retrieve implements Store.
func (s *Hemera) Retrieve(name string) (*vmi.Image, *api.RetrieveResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	val, ok := s.mirage.db.Bucket("manifests").Get([]byte(name))
	if !ok {
		return nil, nil, fmt.Errorf("hemera: image %q not found", name)
	}
	m := &simio.Meter{}
	m.Charge(simio.PhaseDB, s.dev.DBCost(int64(len(val))))
	vs, meta, entries, err := decodeManifest(val)
	if err != nil {
		return nil, nil, err
	}
	img, err := restoreImage(name, vs, meta, entries, m, s.dev, func(e manifestEntry) ([]byte, error) {
		if e.inDB {
			data, ok := s.small.Get(e.blobID[:])
			if !ok {
				return nil, fmt.Errorf("hemera: small file %s missing from DB", e.path)
			}
			m.Charge(simio.PhaseDB, s.dev.DBCost(int64(len(data))))
			return data, nil
		}
		data, ok := s.mirage.blobs.Get(e.blobID)
		if !ok {
			return nil, fmt.Errorf("hemera: blob for %s missing", e.path)
		}
		m.Charge(simio.PhaseFetch, s.dev.SmallFileReadCost(int64(len(data))))
		return data, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return img, &api.RetrieveResult{Seconds: m.Seconds(), Phases: m.PhaseSeconds()}, nil
}

// SizeBytes implements Store.
func (s *Hemera) SizeBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mirage.blobs.TotalBytes() + s.mirage.db.SizeBytes()
}
