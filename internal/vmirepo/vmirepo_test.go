package vmirepo

import (
	"bytes"
	"reflect"
	"testing"

	"expelliarmus/internal/master"
	"expelliarmus/internal/pkgmeta"
	"expelliarmus/internal/semgraph"
	"expelliarmus/internal/simio"
)

var attrs = pkgmeta.BaseAttrs{Type: "linux", Distro: "ubuntu", Version: "16.04", Arch: "x86_64"}

func newRepo() (*Repo, *simio.Meter) {
	return New(simio.NewDevice(simio.PaperProfile())), &simio.Meter{}
}

func pkg(name string) pkgmeta.Package {
	return pkgmeta.Package{
		Name: name, Version: "1.0", Arch: "amd64", Distro: "ubuntu", InstalledSize: 1000,
	}
}

// putBase and getBase move a whole base image through the streaming
// entry points.
func putBase(r *Repo, id string, img []byte, m *simio.Meter) error {
	return r.PutBaseReader(id, attrs, bytes.NewReader(img), int64(len(img)), m)
}

func getBase(r *Repo, id string, ph simio.Phase, m *simio.Meter) ([]byte, error) {
	rc, size, err := r.OpenBase(id, ph, m)
	if err != nil {
		return nil, err
	}
	return readAll(rc, size, "base blob")
}

func TestPackageLifecycle(t *testing.T) {
	r, m := newRepo()
	p := pkg("redis")
	blob := []byte("binary package bytes")
	if r.HasPackage(p.Ref(), m) {
		t.Fatal("empty repo has package")
	}
	if _, err := r.EnsurePackage(p, blob, m); err != nil {
		t.Fatal(err)
	}
	if !r.HasPackage(p.Ref(), m) {
		t.Fatal("stored package not found")
	}
	if stored, err := r.EnsurePackage(p, blob, m); err != nil || stored {
		t.Fatalf("duplicate store: stored=%v, err=%v", stored, err)
	}
	got, data, err := r.GetPackage(p.Ref(), simio.PhaseImport, m)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) || !bytes.Equal(data, blob) {
		t.Fatalf("round trip: %+v, %q", got, data)
	}
	if _, _, err := r.GetPackage("ghost=1/amd64", simio.PhaseImport, m); err == nil {
		t.Fatal("missing package retrieved")
	}
	recs, err := r.Packages()
	if err != nil || len(recs) != 1 || recs[0].BlobSize != int64(len(blob)) {
		t.Fatalf("Packages = %v, %v", recs, err)
	}
	if m.Phase(simio.PhaseImport) == 0 || m.Phase(simio.PhaseStore) == 0 || m.Phase(simio.PhaseDB) == 0 {
		t.Fatalf("costs not charged: %s", m)
	}
}

func TestBaseLifecycle(t *testing.T) {
	r, m := newRepo()
	img := bytes.Repeat([]byte{0xEE}, 5000)
	if err := putBase(r, "base-1", img, m); err != nil {
		t.Fatal(err)
	}
	if err := putBase(r, "base-1", img, m); err == nil {
		t.Fatal("duplicate base store succeeded")
	}
	if !r.HasBase("base-1", m) {
		t.Fatal("stored base missing")
	}
	got, err := getBase(r, "base-1", simio.PhaseCopy, m)
	if err != nil || !bytes.Equal(got, img) {
		t.Fatalf("GetBase: %v", err)
	}
	bases, err := r.Bases()
	if err != nil || len(bases) != 1 || bases[0].Attrs != attrs {
		t.Fatalf("Bases = %v, %v", bases, err)
	}
	size := r.SizeBytes()
	if err := r.RemoveBase("base-1", m); err != nil {
		t.Fatal(err)
	}
	if r.HasBase("base-1", m) {
		t.Fatal("base survived removal")
	}
	if r.SizeBytes() >= size {
		t.Fatal("removal did not reclaim space")
	}
	if err := r.RemoveBase("base-1", m); err == nil {
		t.Fatal("double removal succeeded")
	}
	if _, err := getBase(r, "base-1", simio.PhaseCopy, m); err == nil {
		t.Fatal("removed base retrieved")
	}
}

func baseSubgraph() *semgraph.Graph {
	g := semgraph.New(attrs)
	g.AddVertex(pkg("libc6"), semgraph.KindBase)
	return g
}

func TestMasterLifecycle(t *testing.T) {
	r, m := newRepo()
	mg := master.New("base-1", baseSubgraph())
	ps := semgraph.New(attrs)
	ps.AddVertex(pkg("redis"), semgraph.KindPrimary)
	if err := mg.AddPrimarySubgraph(ps); err != nil {
		t.Fatal(err)
	}
	r.PutMaster(mg, m)
	got, err := r.GetMaster("base-1", m)
	if err != nil {
		t.Fatal(err)
	}
	if got.BaseID != "base-1" || !reflect.DeepEqual(got.PrimaryNames(), []string{"redis"}) {
		t.Fatalf("round trip: %s %v", got.BaseID, got.PrimaryNames())
	}
	all, err := r.Masters()
	if err != nil || len(all) != 1 {
		t.Fatalf("Masters = %v, %v", all, err)
	}
	r.RemoveMaster("base-1", m)
	if _, err := r.GetMaster("base-1", m); err == nil {
		t.Fatal("removed master retrieved")
	}
}

func TestVMIRecords(t *testing.T) {
	r, m := newRepo()
	rec := VMIRecord{Name: "Redis", BaseID: "base-1", Primaries: []string{"redis-server"}}
	r.PutVMI(rec, m)
	got, err := r.GetVMI("Redis", m)
	if err != nil || !reflect.DeepEqual(got, rec) {
		t.Fatalf("GetVMI = %+v, %v", got, err)
	}
	if _, err := r.GetVMI("ghost", m); err == nil {
		t.Fatal("missing record retrieved")
	}
	// Record without primaries.
	r.PutVMI(VMIRecord{Name: "Mini", BaseID: "base-1"}, m)
	mini, err := r.GetVMI("Mini", m)
	if err != nil || len(mini.Primaries) != 0 {
		t.Fatalf("Mini = %+v, %v", mini, err)
	}
	if got := r.VMIs(); len(got) != 2 {
		t.Fatalf("VMIs = %v", got)
	}
}

func TestRewireVMIs(t *testing.T) {
	r, m := newRepo()
	r.PutVMI(VMIRecord{Name: "A", BaseID: "old", Primaries: []string{"p"}}, m)
	r.PutVMI(VMIRecord{Name: "B", BaseID: "other", Primaries: []string{"q"}}, m)
	r.RewireVMIs("old", "new", m)
	a, _ := r.GetVMI("A", m)
	b, _ := r.GetVMI("B", m)
	if a.BaseID != "new" {
		t.Fatalf("A not rewired: %+v", a)
	}
	if b.BaseID != "other" {
		t.Fatalf("B wrongly rewired: %+v", b)
	}
	if !reflect.DeepEqual(a.Primaries, []string{"p"}) {
		t.Fatalf("rewire lost primaries: %+v", a)
	}
}

func TestUserData(t *testing.T) {
	r, m := newRepo()
	got, err := r.GetUserData("Redis", simio.PhaseImport, m)
	if err != nil || got != nil {
		t.Fatalf("empty user data = %q, %v", got, err)
	}
	archive := []byte("tar archive bytes")
	r.PutUserData("Redis", archive, m)
	got, err = r.GetUserData("Redis", simio.PhaseImport, m)
	if err != nil || !bytes.Equal(got, archive) {
		t.Fatalf("round trip = %q, %v", got, err)
	}
}

func TestBlobDedupAcrossKinds(t *testing.T) {
	r, m := newRepo()
	content := bytes.Repeat([]byte{7}, 4096)
	if _, err := r.EnsurePackage(pkg("a"), content, m); err != nil {
		t.Fatal(err)
	}
	size1 := r.SizeBytes()
	// Identical content under a different ref is deduplicated at the blob
	// level even though the metadata differs.
	if _, err := r.EnsurePackage(pkg("b"), content, m); err != nil {
		t.Fatal(err)
	}
	if r.SizeBytes()-size1 > 8192 {
		t.Fatalf("identical blobs not deduplicated: %d -> %d", size1, r.SizeBytes())
	}
}

func TestStats(t *testing.T) {
	r, m := newRepo()
	r.EnsurePackage(pkg("a"), []byte("x"), m)
	putBase(r, "b1", []byte("img"), m)
	r.PutVMI(VMIRecord{Name: "V", BaseID: "b1"}, m)
	st := r.Stats()
	if st.Packages != 1 || st.Bases != 1 || st.VMIs != 1 {
		t.Fatalf("Stats = %+v", st)
	}
	if st.TotalBytes != st.BlobBytes+st.DBBytes {
		t.Fatalf("TotalBytes inconsistent: %+v", st)
	}
}

func TestNilMeterSafe(t *testing.T) {
	r, _ := newRepo()
	if _, err := r.EnsurePackage(pkg("a"), []byte("x"), nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.GetPackage(pkg("a").Ref(), simio.PhaseImport, nil); err != nil {
		t.Fatal(err)
	}
	if err := putBase(r, "b", []byte("i"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := getBase(r, "b", simio.PhaseCopy, nil); err != nil {
		t.Fatal(err)
	}
	r.PutUserData("v", []byte("d"), nil)
	if _, err := r.GetUserData("v", simio.PhaseImport, nil); err != nil {
		t.Fatal(err)
	}
}
