package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"expelliarmus/internal/chunkpool"
	"expelliarmus/internal/pkgmeta"
	"expelliarmus/internal/vdisk"
	"expelliarmus/internal/vmi"
)

// testImage builds a small sparse image: three written extents, one of
// them straddling a cluster boundary.
func testImage(t testing.TB) *vmi.Image {
	t.Helper()
	disk := vdisk.New("wire-test", 1<<20, vdisk.DefaultClusterSize)
	for i, off := range []int64{0, 3*vdisk.DefaultClusterSize - 7, 900 << 10} {
		if _, err := disk.WriteAt(bytes.Repeat([]byte{byte('a' + i)}, 100), off); err != nil {
			t.Fatal(err)
		}
	}
	return &vmi.Image{
		Name:      "wire-test",
		Base:      pkgmeta.BaseAttrs{Type: "linux", Distro: "ubuntu", Version: "16.04", Arch: "x86_64"},
		Primaries: []string{"redis-server", "apache2"},
		Disk:      disk,
	}
}

// envelope frames a header and body the way WriteImageMeta does.
func envelope(hdr []byte, body []byte) []byte {
	out := append([]byte(Magic), 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(out[8:], uint32(len(hdr)))
	return append(append(out, hdr...), body...)
}

// header marshals an ImageHeader, failing the test on error.
func header(t testing.TB, h ImageHeader) []byte {
	t.Helper()
	b, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEnvelopeRoundTrip encodes an image with lifecycle metadata and
// decodes it back: same identity, same metadata, byte-identical disk.
func TestEnvelopeRoundTrip(t *testing.T) {
	img := testImage(t)
	meta := PublishMeta{Tenant: "alice", ExpiresAt: 1790000000}
	var buf bytes.Buffer
	if err := WriteImageMeta(&buf, img, meta); err != nil {
		t.Fatal(err)
	}
	got, gotMeta, err := ReadImageMeta(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta != meta {
		t.Fatalf("metadata = %+v, want %+v", gotMeta, meta)
	}
	if got.Name != img.Name || got.Base != img.Base || !reflect.DeepEqual(got.Primaries, img.Primaries) {
		t.Fatalf("identity = %s %v %v, want %s %v %v", got.Name, got.Base, got.Primaries, img.Name, img.Base, img.Primaries)
	}
	if !bytes.Equal(got.Disk.Serialize(), img.Disk.Serialize()) {
		t.Fatal("disk changed across the envelope")
	}

	// The metadata-free spelling decodes to zero metadata.
	buf.Reset()
	if err := WriteImage(&buf, img); err != nil {
		t.Fatal(err)
	}
	if _, gotMeta, err = ReadImageMeta(&buf); err != nil || gotMeta != (PublishMeta{}) {
		t.Fatalf("plain envelope: metadata %+v, err %v", gotMeta, err)
	}
}

// TestReadImageRejects feeds malformed envelopes; each must fail cleanly
// with an error naming the defect.
func TestReadImageRejects(t *testing.T) {
	disk := testImage(t).Disk.Serialize()
	good := ImageHeader{Name: "x", DiskBytes: int64(len(disk))}
	with := func(edit func(*ImageHeader)) []byte {
		h := good
		edit(&h)
		return header(t, h)
	}
	hugeLen := append([]byte(Magic), 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(hugeLen[8:], MaxHeaderBytes+1)
	for _, tc := range []struct {
		name, want string
		in         []byte
	}{
		{"empty", "read envelope", nil},
		{"bad magic", "bad magic", append([]byte("EXPWIR2\n"), envelope(header(t, good), disk)[8:]...)},
		{"zero header length", "out of range", envelope(nil, disk)},
		{"oversize header length", "out of range", hugeLen},
		{"truncated header", "read header", envelope(header(t, good), nil)[:20]},
		{"header not JSON", "decode header", envelope([]byte("{nope"), disk)},
		{"empty name", "names no image", envelope(with(func(h *ImageHeader) { h.Name = "" }), disk)},
		{"negative DiskBytes", "negative disk length", envelope(with(func(h *ImageHeader) { h.DiskBytes = -1 }), disk)},
		{"negative ExpiresAt", "negative expiry", envelope(with(func(h *ImageHeader) { h.ExpiresAt = -5 }), disk)},
		{"truncated body", "read disk", envelope(header(t, good), disk[:len(disk)/2])},
		{"body not a disk", "open disk", envelope(with(func(h *ImageHeader) { h.DiskBytes = 64 }), make([]byte, 64))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := ReadImageMeta(bytes.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestHostileDiskBytesBounded is the 60-byte daemon killer: a header
// claiming a terabyte-scale disk section with no body behind it must
// fail, and must not have allocated what it claimed.
func TestHostileDiskBytesBounded(t *testing.T) {
	for _, claim := range []int64{1 << 33, 1 << 46} {
		in := envelope(header(t, ImageHeader{Name: "x", DiskBytes: claim}), nil)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := ReadImageMeta(bytes.NewReader(in))
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "read disk") {
			t.Fatalf("claim %d: error = %v, want a disk read failure", claim, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 80<<20 {
			t.Fatalf("claim %d: a %d-byte request allocated %d MiB", claim, len(in), grew>>20)
		}
	}
}

// sparseEnvelope encodes a disk of the given virtual size with one
// written cluster: a few kilobytes of envelope however large the claim.
func sparseEnvelope(t testing.TB, virtual int64) []byte {
	t.Helper()
	disk := vdisk.New("sparse", virtual, vdisk.DefaultClusterSize)
	if _, err := disk.WriteAt([]byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteImage(&buf, &vmi.Image{Name: "sparse", Disk: disk}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestHostileVirtualSizeRefused: a sparse image declaring a virtual size
// hundreds of thousands of times its byte length is refused at the
// envelope, before a mount could size anything by the claim; the largest
// allowed claim still decodes.
func TestHostileVirtualSizeRefused(t *testing.T) {
	in := sparseEnvelope(t, 1<<40)
	if ratio := (1 << 40) / len(in); ratio < 100000 {
		t.Fatalf("fixture is only %dx sparse", ratio)
	}
	if _, _, err := ReadImageMeta(bytes.NewReader(in)); err == nil || !strings.Contains(err.Error(), "virtual size") {
		t.Fatalf("1 TiB claim in %d bytes: error = %v, want a virtual-size refusal", len(in), err)
	}
	if _, _, err := ReadImageMeta(bytes.NewReader(sparseEnvelope(t, maxVirtualBytes+vdisk.DefaultClusterSize))); err == nil {
		t.Fatal("one cluster past the limit was accepted")
	}
	if _, _, err := ReadImageMeta(bytes.NewReader(sparseEnvelope(t, maxVirtualBytes))); err != nil {
		t.Fatalf("claim at the limit: %v", err)
	}
}

// TestLargeDiskSectionGrows reads a 96 MiB + 3-byte disk section, with
// real bytes behind the claim, the way DecodeImage does: the section
// arrives whole, chunk boundaries and the short last chunk included.
func TestLargeDiskSectionGrows(t *testing.T) {
	const n = 96<<20 + 3
	src := make([]byte, n)
	for i := range src {
		src[i] = byte(i * 7)
	}
	got, err := chunkpool.ReadFull(bytes.NewReader(src), n)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Release()
	buf := make([]byte, 1<<20+5) // not a multiple of the chunk size
	for off := int64(0); off < n; off += int64(len(buf)) {
		m, err := got.ReadAt(buf, off)
		if want := min(int64(len(buf)), n-off); int64(m) != want || (err != nil && m == len(buf)) {
			t.Fatalf("ReadAt at %d = %d, %v; want %d bytes", off, m, err, want)
		}
		if !bytes.Equal(buf[:m], src[off:off+int64(m)]) {
			t.Fatalf("the section differs from what was sent at %d", off)
		}
	}
}

// FuzzReadImageMeta throws arbitrary bytes at the envelope decoder — the
// one parser that reads straight off the network. It must never panic,
// and anything it accepts must re-encode to an envelope that decodes to
// the same image.
func FuzzReadImageMeta(f *testing.F) {
	var good bytes.Buffer
	if err := WriteImageMeta(&good, testImage(f), PublishMeta{Tenant: "t", ExpiresAt: 9}); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add(good.Bytes()[:good.Len()/2])
	f.Add([]byte(Magic))
	f.Add(envelope(header(f, ImageHeader{Name: "x", DiskBytes: 1 << 46}), nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		img, meta, err := ReadImageMeta(bytes.NewReader(data))
		if err != nil {
			return
		}
		var re bytes.Buffer
		if err := WriteImageMeta(&re, img, meta); err != nil {
			// An accepted disk may still reference clusters its tables
			// place out of the section's bounds; reading those fails
			// lazily, and that is the only way re-encoding may fail.
			return
		}
		img2, meta2, err := ReadImageMeta(&re)
		if err != nil {
			t.Fatalf("re-encoded envelope rejected: %v", err)
		}
		if meta2 != meta || img2.Name != img.Name || img2.Base != img.Base || !reflect.DeepEqual(img2.Primaries, img.Primaries) {
			t.Fatalf("envelope round trip changed the image: %+v %+v -> %+v %+v", img, meta, img2, meta2)
		}
	})
}
