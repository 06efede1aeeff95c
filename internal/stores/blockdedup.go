package stores

import (
	"bytes"
	"fmt"
	"sync"

	"expelliarmus/internal/api"
	"expelliarmus/internal/blobstore"
	"expelliarmus/internal/chunker"
	"expelliarmus/internal/metadb"
	"expelliarmus/internal/simio"
	"expelliarmus/internal/vdisk"
	"expelliarmus/internal/vmi"
)

// BlockDedup is the related-work baseline (Jin et al., Liquid): the
// serialized image is chunked — fixed-size or Rabin content-defined — and
// chunks are stored content-addressed. It captures byte-identical
// redundancy across images but, unlike the semantic schemes, cannot tell
// package payload from churn and stores whole-image recipes.
type BlockDedup struct {
	mu     sync.Mutex
	dev    *simio.Device
	chk    chunker.Chunker
	blobs  *blobstore.Store
	db     *metadb.DB
	charge bool
}

// NewBlockDedup returns an empty block-dedup store using the chunker.
func NewBlockDedup(dev *simio.Device, chk chunker.Chunker) *BlockDedup {
	s := &BlockDedup{dev: dev, chk: chk, blobs: blobstore.New(), db: metadb.New()}
	s.db.CreateBucket("recipes")
	return s
}

// Name implements Store.
func (s *BlockDedup) Name() string { return "blockdedup-" + s.chk.Name() }

// Publish implements Store.
func (s *BlockDedup) Publish(img *vmi.Image) (*api.PublishResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := &simio.Meter{}
	raw := img.Serialize()
	m.Charge(simio.PhaseScan, s.dev.ReadCost(int64(len(raw))))
	m.Charge(simio.PhaseHash, s.dev.HashCost(int64(len(raw))))

	chunks := s.chk.Split(raw)
	var recipe bytes.Buffer
	meta := metaOf(img)
	recipe.WriteString(fmt.Sprintf("%s\n%s\n%s\n%s\n%d\n",
		meta.base[0], meta.base[1], meta.base[2], meta.base[3], len(meta.primaries)))
	for _, p := range meta.primaries {
		recipe.WriteString(p + "\n")
	}
	for _, c := range chunks {
		id, fresh := s.blobs.Put(c.Data)
		if fresh {
			m.Charge(simio.PhaseStore, s.dev.WriteCost(int64(len(c.Data))))
		}
		recipe.Write(id[:])
	}
	s.db.Bucket("recipes").Put([]byte(img.Name), recipe.Bytes())
	m.Charge(simio.PhaseDB, s.dev.DBCost(int64(recipe.Len())))
	return &api.PublishResult{Seconds: m.Seconds(), Phases: m.PhaseSeconds()}, nil
}

// Retrieve implements Store.
func (s *BlockDedup) Retrieve(name string) (*vmi.Image, *api.RetrieveResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	val, ok := s.db.Bucket("recipes").Get([]byte(name))
	if !ok {
		return nil, nil, fmt.Errorf("blockdedup: image %q not found", name)
	}
	m := &simio.Meter{}
	m.Charge(simio.PhaseDB, s.dev.DBCost(int64(len(val))))

	// Parse the header lines.
	var meta imageMeta
	rest := val
	for i := 0; i < 5; i++ {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			return nil, nil, fmt.Errorf("blockdedup: corrupt recipe for %q", name)
		}
		field := string(rest[:nl])
		rest = rest[nl+1:]
		if i < 4 {
			meta.base[i] = field
		} else {
			var np int
			fmt.Sscanf(field, "%d", &np)
			for j := 0; j < np; j++ {
				nl = bytes.IndexByte(rest, '\n')
				if nl < 0 {
					return nil, nil, fmt.Errorf("blockdedup: corrupt primaries for %q", name)
				}
				meta.primaries = append(meta.primaries, string(rest[:nl]))
				rest = rest[nl+1:]
			}
		}
	}
	if len(rest)%32 != 0 {
		return nil, nil, fmt.Errorf("blockdedup: corrupt chunk list for %q", name)
	}
	var raw bytes.Buffer
	for off := 0; off < len(rest); off += 32 {
		var id blobstore.ID
		copy(id[:], rest[off:off+32])
		data, ok := s.blobs.Get(id)
		if !ok {
			return nil, nil, fmt.Errorf("blockdedup: chunk %d missing for %q", off/32, name)
		}
		raw.Write(data)
	}
	m.Charge(simio.PhaseFetch, s.dev.ReadCost(int64(raw.Len())))
	m.Charge(simio.PhaseStore, s.dev.WriteCost(int64(raw.Len())))
	disk, err := vdisk.Deserialize(name, raw.Bytes())
	if err != nil {
		return nil, nil, err
	}
	img := &vmi.Image{Name: name, Disk: disk}
	meta.apply(img)
	return img, &api.RetrieveResult{Seconds: m.Seconds(), Phases: m.PhaseSeconds()}, nil
}

// SizeBytes implements Store.
func (s *BlockDedup) SizeBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.blobs.TotalBytes() + s.db.SizeBytes()
}
