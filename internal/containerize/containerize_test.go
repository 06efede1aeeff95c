package containerize

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"expelliarmus/internal/builder"
	"expelliarmus/internal/catalog"
	"expelliarmus/internal/core"
	"expelliarmus/internal/simio"
)

var testDev = simio.NewDevice(simio.PaperProfile().Scaled(catalog.ByteScale, catalog.FileScale))

// publishSet builds and publishes the named templates into a fresh system.
func publishSet(t *testing.T, names ...string) *core.System {
	t.Helper()
	sys := core.NewSystem(testDev, core.Options{})
	b := builder.New(catalog.NewUniverse())
	for _, n := range names {
		tpl, ok := catalog.Find(n)
		if !ok {
			t.Fatalf("template %s", n)
		}
		img, err := b.Build(tpl)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Publish(img); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

func TestExportLayers(t *testing.T) {
	sys := publishSet(t, "Mini", "Redis")
	e := NewExporter(sys.Repo())
	m, err := e.Export("Redis")
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "Redis" || m.Base == "" {
		t.Fatalf("manifest: %+v", m)
	}
	// base + redis-server + userdata.
	if len(m.Layers) != 3 {
		t.Fatalf("layers = %d: %+v", len(m.Layers), m.Layers)
	}
	if m.Layers[0].MediaType != MediaTypeBase {
		t.Fatal("first layer not base")
	}
	if m.Layers[1].MediaType != MediaTypePackage || m.Layers[1].CreatedBy != "pkg redis-server=1.0-ubuntu1/amd64" {
		t.Fatalf("package layer: %+v", m.Layers[1])
	}
	if m.Layers[2].MediaType != MediaTypeUserData {
		t.Fatal("last layer not user data")
	}
	for _, l := range m.Layers {
		blob, ok := e.LayerBlob(l.Digest)
		if !ok || int64(len(blob)) != l.Size {
			t.Fatalf("layer %s: blob %d vs size %d (ok=%v)", l.Digest, len(blob), l.Size, ok)
		}
	}
	if m.TotalSize() <= 0 {
		t.Fatal("TotalSize zero")
	}
}

func TestExportDeterministic(t *testing.T) {
	sys := publishSet(t, "Mini", "Redis")
	e := NewExporter(sys.Repo())
	m1, err := e.Export("Redis")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := e.Export("Redis")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m1, m2) {
		t.Fatal("repeated export differs")
	}
}

func TestExportSharesLayersAcrossImages(t *testing.T) {
	sys := publishSet(t, "Mini", "Redis", "Base", "Lemp")
	e := NewExporter(sys.Repo())
	var logical int64
	for _, name := range []string{"Redis", "Base", "Lemp"} {
		m, err := e.Export(name)
		if err != nil {
			t.Fatal(err)
		}
		logical += m.TotalSize()
	}
	// All three containers share the base layer and Lemp shares
	// mysql-server with Base, so unique layer bytes are far below the
	// logical sum.
	if e.TotalBytes() >= logical*2/3 {
		t.Fatalf("layer store %d not well below logical %d", e.TotalBytes(), logical)
	}
	// Base and Lemp must reference the identical mysql layer digest.
	mBase, _ := e.Export("Base")
	mLemp, _ := e.Export("Lemp")
	find := func(m *Manifest, created string) string {
		for _, l := range m.Layers {
			if l.CreatedBy == created {
				return l.Digest
			}
		}
		return ""
	}
	const mysqlRef = "pkg mysql-server=1.0-ubuntu1/amd64"
	d1, d2 := find(mBase, mysqlRef), find(mLemp, mysqlRef)
	if d1 == "" || d1 != d2 {
		t.Fatalf("mysql layer not shared: %q vs %q", d1, d2)
	}
}

func TestManifestEncodeDecode(t *testing.T) {
	sys := publishSet(t, "Mini", "Redis")
	e := NewExporter(sys.Repo())
	m, err := e.Export("Redis")
	if err != nil {
		t.Fatal(err)
	}
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"mediaType"`)) {
		t.Fatalf("encoded manifest: %s", data)
	}
	got := new(Manifest)
	if err := json.Unmarshal(data, got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatal("manifest round trip differs")
	}
}

func TestExportErrors(t *testing.T) {
	sys := publishSet(t, "Mini")
	e := NewExporter(sys.Repo())
	if _, err := e.Export("never-published"); err == nil {
		t.Fatal("exported unknown VMI")
	}
	if _, ok := e.LayerBlob("zz-not-hex"); ok {
		t.Fatal("LayerBlob accepted bad digest")
	}
}
