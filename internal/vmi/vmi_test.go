package vmi

import (
	"bytes"
	"testing"

	"expelliarmus/internal/fstree"
	"expelliarmus/internal/pkgmeta"
	"expelliarmus/internal/vdisk"
)

func newImage(t *testing.T) *Image {
	t.Helper()
	d := vdisk.New("img", 4<<20, vdisk.DefaultClusterSize)
	fs, err := fstree.Format(d, 256)
	if err != nil {
		t.Fatal(err)
	}
	fs.MkdirAll("/usr/bin")
	fs.WriteFile("/usr/bin/app", bytes.Repeat([]byte{1}, 10000))
	return &Image{
		Name:      "test-img",
		Base:      pkgmeta.BaseAttrs{Type: "linux", Distro: "ubuntu", Version: "16.04", Arch: "x86_64"},
		Primaries: []string{"app"},
		Disk:      d,
	}
}

func TestMount(t *testing.T) {
	img := newImage(t)
	fs, err := img.Mount()
	if err != nil {
		t.Fatal(err)
	}
	if !fs.Exists("/usr/bin/app") {
		t.Fatal("mounted filesystem missing content")
	}
	// Unformatted disks fail to mount with the image name in the error.
	bad := &Image{Name: "broken", Disk: vdisk.New("b", 1<<20, 4096)}
	if _, err := bad.Mount(); err == nil {
		t.Fatal("mounted unformatted image")
	}
}

func TestSerializeMatchesDisk(t *testing.T) {
	img := newImage(t)
	if !bytes.Equal(img.Serialize(), img.Disk.Serialize()) {
		t.Fatal("Serialize differs from disk serialization")
	}
}

func TestStats(t *testing.T) {
	img := newImage(t)
	st, err := img.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Files != 1 {
		t.Fatalf("Files = %d", st.Files)
	}
	if st.MountedBytes <= 10000 {
		t.Fatalf("MountedBytes = %d, want content + metadata", st.MountedBytes)
	}
	if st.SerializedBytes <= 0 || st.SerializedBytes < st.MountedBytes/2 {
		t.Fatalf("SerializedBytes = %d", st.SerializedBytes)
	}
}

// TestStatsSerializedBytesIsSerializeLength: Stats measures the serialized
// size without serializing, and it measures what Serialize produces — for
// a built image and for a lazily decoded one with rewritten clusters.
func TestStatsSerializedBytesIsSerializeLength(t *testing.T) {
	check := func(name string, img *Image) {
		t.Helper()
		st, err := img.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if n := int64(len(img.Serialize())); st.SerializedBytes != n {
			t.Fatalf("%s: SerializedBytes = %d, Serialize gives %d bytes", name, st.SerializedBytes, n)
		}
	}
	img := newImage(t)
	check("built", img)
	blob := img.Serialize()
	lazy, err := vdisk.DeserializeLazy("lazy", bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	img.Disk = lazy
	fs, err := img.Mount()
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/usr/bin/app", bytes.Repeat([]byte{2}, 3*vdisk.DefaultClusterSize)); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/etc-motd", []byte("rewritten")); err != nil {
		t.Fatal(err)
	}
	check("lazy, rewritten", img)
}

func TestCloneDeep(t *testing.T) {
	img := newImage(t)
	c := img.Clone()
	if c.Name != img.Name || c.Base != img.Base {
		t.Fatalf("clone metadata: %+v", c)
	}
	// Mutating the clone's primaries or disk leaves the original intact.
	c.Primaries[0] = "mutated"
	if img.Primaries[0] != "app" {
		t.Fatal("clone shares Primaries")
	}
	cfs, _ := c.Mount()
	cfs.RemoveAll("/usr")
	fs, _ := img.Mount()
	if !fs.Exists("/usr/bin/app") {
		t.Fatal("clone shares disk")
	}
}

func TestUserDataRoots(t *testing.T) {
	want := map[string]bool{"/home": true, "/root": true, "/srv": true}
	if len(UserDataRoots) != len(want) {
		t.Fatalf("UserDataRoots = %v", UserDataRoots)
	}
	for _, r := range UserDataRoots {
		if !want[r] {
			t.Fatalf("unexpected root %q", r)
		}
	}
}
