// Package containerize implements the paper's declared future work
// (Sec. VII): "extend Expelliarmus to support automated containerization
// of a VMI with multiple container service functionality". A published VMI
// is exported as a layered container image whose layers fall directly out
// of the semantic decomposition: one base layer (the shared base image),
// one layer per software package, and one user-data layer. Because layers
// are content-addressed, container images exported from different VMIs
// share their base and common package layers — the same dedup the
// repository itself achieves.
package containerize

import (
	"encoding/json"
	"fmt"
	"io"

	"expelliarmus/internal/blobstore"
	"expelliarmus/internal/pkgmeta"
	"expelliarmus/internal/pkgmgr"
	"expelliarmus/internal/semgraph"
	"expelliarmus/internal/simio"
	"expelliarmus/internal/vmirepo"
)

// Layer media types, in the spirit of OCI image-spec media types.
const (
	MediaTypeBase     = "application/vnd.expelliarmus.layer.base"
	MediaTypePackage  = "application/vnd.expelliarmus.layer.package"
	MediaTypeUserData = "application/vnd.expelliarmus.layer.userdata"
)

// Layer is one content-addressed container image layer.
type Layer struct {
	MediaType string `json:"mediaType"`
	Digest    string `json:"digest"` // sha256 hex of the layer blob
	Size      int64  `json:"size"`
	CreatedBy string `json:"createdBy"` // provenance: base ID, package ref, or VMI name
}

// Manifest describes one exported container image.
type Manifest struct {
	Name   string  `json:"name"`
	Base   string  `json:"base"` // base image attribute quadruple
	Layers []Layer `json:"layers"`
}

// TotalSize is the logical image size: the sum of layer sizes.
func (m *Manifest) TotalSize() int64 {
	var total int64
	for _, l := range m.Layers {
		total += l.Size
	}
	return total
}

// MarshalJSON output is deterministic; Encode renders the manifest.
func (m *Manifest) Encode() ([]byte, error) {
	return json.MarshalIndent(m, "", "  ")
}

// Exporter converts published VMIs into container images over a shared,
// content-addressed layer store.
type Exporter struct {
	repo   *vmirepo.Repo
	layers *blobstore.Store
}

// NewExporter returns an exporter over the repository.
func NewExporter(repo *vmirepo.Repo) *Exporter {
	return &Exporter{repo: repo, layers: blobstore.New()}
}

// TotalBytes is the unique bytes held by the layer store — shared layers
// are counted once however many images reference them.
func (e *Exporter) TotalBytes() int64 { return e.layers.TotalBytes() }

// LayerBlob returns a layer's contents by digest.
func (e *Exporter) LayerBlob(digest string) ([]byte, bool) {
	id, err := blobstore.ParseID(digest)
	if err != nil {
		return nil, false
	}
	return e.layers.Get(id)
}

func (e *Exporter) addLayer(mediaType, createdBy string, blob []byte) Layer {
	id, _ := e.layers.Put(blob)
	return Layer{
		MediaType: mediaType,
		Digest:    id.String(),
		Size:      int64(len(blob)),
		CreatedBy: createdBy,
	}
}

// Export converts the published VMI into a container image: base layer,
// dependency-ordered package layers, then the user-data layer.
func (e *Exporter) Export(vmiName string) (*Manifest, error) {
	rec, err := e.repo.GetVMI(vmiName, nil)
	if err != nil {
		return nil, err
	}
	mg, err := e.repo.GetMaster(rec.BaseID, nil)
	if err != nil {
		return nil, err
	}
	rc, size, err := e.repo.OpenBase(rec.BaseID, simio.PhaseFetch, nil)
	if err != nil {
		return nil, err
	}
	baseBlob := make([]byte, size)
	_, err = io.ReadFull(rc, baseBlob)
	rc.Close()
	if err != nil {
		return nil, fmt.Errorf("containerize: read base %s: %w", rec.BaseID, err)
	}
	m := &Manifest{Name: vmiName, Base: mg.Attrs().String()}
	m.Layers = append(m.Layers, e.addLayer(MediaTypeBase, "base "+rec.BaseID, baseBlob))

	// The package set: union of the primaries' subgraphs within the
	// master, installed dependencies-first so each layer only depends on
	// layers below it.
	psUnion := semgraph.New(mg.Attrs())
	for _, p := range rec.Primaries {
		sub, err := mg.PrimarySubgraph(p)
		if err != nil {
			return nil, fmt.Errorf("containerize: %s: %w", vmiName, err)
		}
		psUnion.Union(sub)
	}
	baseSub := mg.BaseSubgraph()
	var missing []string
	for _, v := range psUnion.Vertices() {
		if !baseSub.HasVertex(v.Pkg.Name) {
			missing = append(missing, v.Pkg.Name)
		}
	}
	order, err := pkgmgr.InstallOrder(graphUniverse{psUnion}, missing)
	if err != nil {
		return nil, err
	}
	for _, group := range order {
		for _, name := range group {
			v, _ := psUnion.Vertex(name)
			_, blob, err := e.repo.GetPackage(v.Pkg.Ref(), simio.PhaseFetch, nil)
			if err != nil {
				return nil, err
			}
			m.Layers = append(m.Layers, e.addLayer(MediaTypePackage, "pkg "+v.Pkg.Ref(), blob))
		}
	}

	if archive, err := e.repo.GetUserData(vmiName, simio.PhaseFetch, nil); err != nil {
		return nil, err
	} else if archive != nil {
		m.Layers = append(m.Layers, e.addLayer(MediaTypeUserData, "userdata "+vmiName, archive))
	}
	return m, nil
}

// graphUniverse adapts a semantic graph to the resolver interface.
type graphUniverse struct{ g *semgraph.Graph }

func (u graphUniverse) Lookup(name string) (pkgmeta.Package, bool) {
	v, ok := u.g.Vertex(name)
	return v.Pkg, ok
}
