// Package stores implements the VMI encoding schemes compared in the
// paper's evaluation (Sec. VI-B): plain Qcow2, Qcow2+Gzip, Mirage-style
// file-level deduplication, Hemera-style hybrid database/file storage,
// block-level deduplication (the related-work baseline), and Expelliarmus
// itself. All schemes implement the same Store interface, charge their
// operations to simio meters, and report their repository footprint — the
// three quantities behind Figs. 3, 4 and 5.
package stores

import (
	"expelliarmus/internal/api"
	"expelliarmus/internal/vmi"
)

// Store is a VMI repository encoding scheme.
type Store interface {
	// Name identifies the scheme (e.g. "qcow2", "mirage", "expelliarmus").
	Name() string
	// Publish stores the image. Implementations must not consume the
	// caller's image (they clone or serialize as needed).
	Publish(img *vmi.Image) (*api.PublishResult, error)
	// Retrieve reconstructs a published image by name.
	Retrieve(name string) (*vmi.Image, *api.RetrieveResult, error)
	// SizeBytes is the repository footprint in real bytes.
	SizeBytes() int64
}
