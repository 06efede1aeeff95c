package stores

import (
	"sync"

	"expelliarmus/internal/api"
	"expelliarmus/internal/core"
	"expelliarmus/internal/simio"
	"expelliarmus/internal/vmi"
)

// Expel adapts the Expelliarmus system (internal/core) to the Store
// interface used by the evaluation harness.
type Expel struct {
	mu  sync.Mutex
	sys *core.System
	// LastPublish and LastRetrieve keep the most recent detailed reports
	// for harness code that needs the full phase breakdown.
	LastPublish  *core.PublishReport
	LastRetrieve *core.RetrieveReport
}

// NewExpel returns an Expelliarmus store over a fresh in-memory
// repository.
func NewExpel(dev *simio.Device, opts core.Options) *Expel {
	return &Expel{sys: core.NewSystem(dev, opts)}
}

// NewExpelWithSystem adapts an existing system — e.g. one whose repository
// runs on the disk backend — to the Store interface.
func NewExpelWithSystem(sys *core.System) *Expel {
	return &Expel{sys: sys}
}

// System exposes the wrapped system.
func (s *Expel) System() *core.System { return s.sys }

// Name implements Store.
func (s *Expel) Name() string { return "expelliarmus" }

// Publish implements Store.
func (s *Expel) Publish(img *vmi.Image) (*api.PublishResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep, err := s.sys.Publish(img)
	if err != nil {
		return nil, err
	}
	s.LastPublish = rep
	return rep.Result(), nil
}

// Retrieve implements Store.
func (s *Expel) Retrieve(name string) (*vmi.Image, *api.RetrieveResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	img, rep, err := s.sys.Retrieve(name)
	if err != nil {
		return nil, nil, err
	}
	s.LastRetrieve = rep
	return img, rep.Result(), nil
}

// SizeBytes implements Store.
func (s *Expel) SizeBytes() int64 { return s.sys.Repo().SizeBytes() }
