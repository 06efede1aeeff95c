package stores

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"sort"
	"sync"

	"expelliarmus/internal/api"
	"expelliarmus/internal/simio"
	"expelliarmus/internal/vdisk"
	"expelliarmus/internal/vmi"
)

// imageMeta carries the upload metadata alongside raw encodings.
type imageMeta struct {
	base      [4]string
	primaries []string
}

func metaOf(img *vmi.Image) imageMeta {
	return imageMeta{
		base:      [4]string{img.Base.Type, img.Base.Distro, img.Base.Version, img.Base.Arch},
		primaries: append([]string(nil), img.Primaries...),
	}
}

func (m imageMeta) apply(img *vmi.Image) {
	img.Base.Type, img.Base.Distro, img.Base.Version, img.Base.Arch =
		m.base[0], m.base[1], m.base[2], m.base[3]
	img.Primaries = append([]string(nil), m.primaries...)
}

// Qcow2 stores each image as its raw serialized qcow2-like file — the
// paper's "Qcow2 format with no compression" baseline.
type Qcow2 struct {
	mu     sync.Mutex
	dev    *simio.Device
	images map[string][]byte
	meta   map[string]imageMeta
	bytes  int64
}

// NewQcow2 returns an empty raw-image store.
func NewQcow2(dev *simio.Device) *Qcow2 {
	return &Qcow2{dev: dev, images: map[string][]byte{}, meta: map[string]imageMeta{}}
}

// Name implements Store.
func (s *Qcow2) Name() string { return "qcow2" }

// Publish implements Store.
func (s *Qcow2) Publish(img *vmi.Image) (*api.PublishResult, error) {
	m := &simio.Meter{}
	data := img.Serialize()
	m.Charge(simio.PhaseScan, s.dev.ReadCost(int64(len(data))))
	m.Charge(simio.PhaseStore, s.dev.WriteCost(int64(len(data))))
	s.mu.Lock()
	if old, ok := s.images[img.Name]; ok {
		s.bytes -= int64(len(old))
	}
	s.images[img.Name] = data
	s.meta[img.Name] = metaOf(img)
	s.bytes += int64(len(data))
	s.mu.Unlock()
	return &api.PublishResult{Seconds: m.Seconds(), Phases: m.PhaseSeconds()}, nil
}

// Retrieve implements Store.
func (s *Qcow2) Retrieve(name string) (*vmi.Image, *api.RetrieveResult, error) {
	s.mu.Lock()
	data, ok := s.images[name]
	meta := s.meta[name]
	s.mu.Unlock()
	if !ok {
		return nil, nil, fmt.Errorf("qcow2: image %q not found", name)
	}
	m := &simio.Meter{}
	m.Charge(simio.PhaseCopy, s.dev.ReadCost(int64(len(data))))
	disk, err := vdisk.Deserialize(name, data)
	if err != nil {
		return nil, nil, err
	}
	img := &vmi.Image{Name: name, Disk: disk}
	meta.apply(img)
	return img, &api.RetrieveResult{Seconds: m.Seconds(), Phases: m.PhaseSeconds()}, nil
}

// SizeBytes implements Store.
func (s *Qcow2) SizeBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Images lists stored image names.
func (s *Qcow2) Images() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.images))
	for n := range s.images {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Gzip stores each image gzip-compressed — the "Qcow2 + Gzip" baseline.
// Compression is real (compress/gzip), so repository sizes reflect the
// content's actual compressibility.
type Gzip struct {
	mu     sync.Mutex
	dev    *simio.Device
	images map[string][]byte
	meta   map[string]imageMeta
	bytes  int64
}

// NewGzip returns an empty compressed-image store.
func NewGzip(dev *simio.Device) *Gzip {
	return &Gzip{dev: dev, images: map[string][]byte{}, meta: map[string]imageMeta{}}
}

// Name implements Store.
func (s *Gzip) Name() string { return "qcow2+gzip" }

// Publish implements Store.
func (s *Gzip) Publish(img *vmi.Image) (*api.PublishResult, error) {
	m := &simio.Meter{}
	raw := img.Serialize()
	m.Charge(simio.PhaseScan, s.dev.ReadCost(int64(len(raw))))
	m.Charge(simio.PhaseCompress, s.dev.GzipCost(int64(len(raw))))
	var buf bytes.Buffer
	w, err := gzip.NewWriterLevel(&buf, gzip.DefaultCompression)
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(raw); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	data := buf.Bytes()
	m.Charge(simio.PhaseStore, s.dev.WriteCost(int64(len(data))))
	s.mu.Lock()
	if old, ok := s.images[img.Name]; ok {
		s.bytes -= int64(len(old))
	}
	s.images[img.Name] = data
	s.meta[img.Name] = metaOf(img)
	s.bytes += int64(len(data))
	s.mu.Unlock()
	return &api.PublishResult{Seconds: m.Seconds(), Phases: m.PhaseSeconds()}, nil
}

// Retrieve implements Store.
func (s *Gzip) Retrieve(name string) (*vmi.Image, *api.RetrieveResult, error) {
	s.mu.Lock()
	data, ok := s.images[name]
	meta := s.meta[name]
	s.mu.Unlock()
	if !ok {
		return nil, nil, fmt.Errorf("gzip: image %q not found", name)
	}
	m := &simio.Meter{}
	m.Charge(simio.PhaseCopy, s.dev.ReadCost(int64(len(data))))
	m.Charge(simio.PhaseDecompress, s.dev.GunzipCost(int64(len(data))))
	r, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, nil, err
	}
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, err
	}
	disk, err := vdisk.Deserialize(name, raw)
	if err != nil {
		return nil, nil, err
	}
	img := &vmi.Image{Name: name, Disk: disk}
	meta.apply(img)
	return img, &api.RetrieveResult{Seconds: m.Seconds(), Phases: m.PhaseSeconds()}, nil
}

// SizeBytes implements Store.
func (s *Gzip) SizeBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}
