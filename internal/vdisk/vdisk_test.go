package vdisk

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

func mk(t *testing.T, size int64) *Disk {
	t.Helper()
	return New("test", size, DefaultClusterSize)
}

func TestReadUnwrittenIsZero(t *testing.T) {
	d := mk(t, 64<<10)
	buf := make([]byte, 1000)
	for i := range buf {
		buf[i] = 0xFF
	}
	if _, err := d.ReadAt(buf, 12345); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, b)
		}
	}
	if d.AllocatedBytes() != 0 {
		t.Fatalf("reads allocated %d bytes", d.AllocatedBytes())
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := mk(t, 1<<20)
	data := make([]byte, 10000)
	rand.New(rand.NewSource(1)).Read(data)
	if _, err := d.WriteAt(data, 4000); err != nil { // straddles clusters
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := d.ReadAt(got, 4000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read-after-write mismatch")
	}
	// Bytes around the write are still zero.
	edge := make([]byte, 10)
	d.ReadAt(edge, 3990)
	if !bytes.Equal(edge, make([]byte, 10)) {
		t.Fatal("write spilled before offset")
	}
}

func TestOutOfRangeIO(t *testing.T) {
	d := mk(t, 8192)
	if _, err := d.ReadAt(make([]byte, 10), 8190); err == nil {
		t.Fatal("read past end succeeded")
	}
	if _, err := d.WriteAt(make([]byte, 10), -1); err == nil {
		t.Fatal("negative write succeeded")
	}
	if _, err := d.WriteAt(make([]byte, 1), 8191); err != nil {
		t.Fatalf("last byte write failed: %v", err)
	}
}

func TestSparseAllocation(t *testing.T) {
	d := mk(t, 1<<30) // 1 GiB virtual
	d.WriteAt([]byte("x"), 0)
	d.WriteAt([]byte("y"), 512<<20)
	if got := d.AllocatedClusters(); got != 2 {
		t.Fatalf("AllocatedClusters = %d, want 2", got)
	}
	if got := d.AllocatedBytes(); got != 2*DefaultClusterSize {
		t.Fatalf("AllocatedBytes = %d", got)
	}
}

func TestGrow(t *testing.T) {
	d := mk(t, 4096)
	if err := d.Grow(8192); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WriteAt([]byte("z"), 8191); err != nil {
		t.Fatal(err)
	}
	if err := d.Grow(4096); err == nil {
		t.Fatal("shrink succeeded")
	}
}

func TestDiscardReclaims(t *testing.T) {
	d := mk(t, 1<<20)
	data := bytes.Repeat([]byte{0xAB}, 5*DefaultClusterSize)
	d.WriteAt(data, 0)
	before := d.AllocatedBytes()
	// Discard clusters 1..3 (fully contained in range).
	d.Discard(DefaultClusterSize, 3*DefaultClusterSize)
	if got := before - d.AllocatedBytes(); got != 3*DefaultClusterSize {
		t.Fatalf("reclaimed %d, want 3 clusters", got)
	}
	buf := make([]byte, DefaultClusterSize)
	d.ReadAt(buf, DefaultClusterSize)
	if !bytes.Equal(buf, make([]byte, DefaultClusterSize)) {
		t.Fatal("discarded cluster not zero")
	}
	d.ReadAt(buf, 0)
	if buf[0] != 0xAB {
		t.Fatal("undiscarded cluster lost data")
	}
}

func TestDiscardPartialClustersKept(t *testing.T) {
	d := mk(t, 1<<20)
	d.WriteAt(bytes.Repeat([]byte{1}, 2*DefaultClusterSize), 0)
	// Range covers only half of each cluster: nothing may be dropped.
	d.Discard(DefaultClusterSize/2, DefaultClusterSize)
	if d.AllocatedClusters() != 2 {
		t.Fatalf("partial discard dropped clusters: %d left", d.AllocatedClusters())
	}
}

// An explicit write of zeros, unlike Discard, masks backing-file contents.
func TestZeroFillMasksBacking(t *testing.T) {
	parent := mk(t, 1<<20)
	parent.WriteAt(bytes.Repeat([]byte{7}, 8192), 0)
	child := parent.NewChild("child")
	child.WriteAt(make([]byte, 8192), 0)
	buf := make([]byte, 8192)
	child.ReadAt(buf, 0)
	if !bytes.Equal(buf, make([]byte, 8192)) {
		t.Fatal("zero write did not mask backing data")
	}
}

func TestCOWChildIsolation(t *testing.T) {
	parent := mk(t, 1<<20)
	orig := bytes.Repeat([]byte{0x11}, 3*DefaultClusterSize)
	parent.WriteAt(orig, 0)

	child := parent.NewChild("child")
	if child.backing != parent {
		t.Fatal("Backing not set")
	}
	// Child reads fall through to the parent.
	got := make([]byte, len(orig))
	child.ReadAt(got, 0)
	if !bytes.Equal(got, orig) {
		t.Fatal("child does not see parent data")
	}
	// Partial write in the middle of a backed cluster preserves the rest.
	child.WriteAt([]byte{0xFF}, 100)
	child.ReadAt(got, 0)
	if got[100] != 0xFF || got[99] != 0x11 || got[101] != 0x11 {
		t.Fatalf("COW partial write corrupted cluster: % x", got[98:103])
	}
	// Parent unchanged.
	parent.ReadAt(got, 0)
	if got[100] != 0x11 {
		t.Fatal("child write leaked into parent")
	}
	// Child allocation counts only its own clusters.
	if child.AllocatedClusters() != 1 {
		t.Fatalf("child AllocatedClusters = %d, want 1", child.AllocatedClusters())
	}
}

func TestFlatten(t *testing.T) {
	base := mk(t, 1<<20)
	base.WriteAt(bytes.Repeat([]byte{1}, 4096), 0)
	mid := base.NewChild("mid")
	mid.WriteAt(bytes.Repeat([]byte{2}, 4096), 4096)
	top := mid.NewChild("top")
	top.WriteAt(bytes.Repeat([]byte{3}, 4096), 8192)

	top.Flatten()
	if top.backing != nil {
		t.Fatal("backing survived Flatten")
	}
	if top.AllocatedClusters() != 3 {
		t.Fatalf("AllocatedClusters = %d, want 3", top.AllocatedClusters())
	}
	buf := make([]byte, 1)
	top.ReadAt(buf, 0)
	if buf[0] != 1 {
		t.Fatal("flattened disk lost base data")
	}
	// Mutating base after flatten must not affect top.
	base.WriteAt([]byte{9}, 0)
	top.ReadAt(buf, 0)
	if buf[0] != 1 {
		t.Fatal("flattened disk aliases base clusters")
	}
}

func TestCloneIndependent(t *testing.T) {
	d := mk(t, 1<<20)
	d.WriteAt([]byte("original"), 0)
	c := d.Clone("copy")
	c.WriteAt([]byte("modified"), 0)
	buf := make([]byte, 8)
	d.ReadAt(buf, 0)
	if string(buf) != "original" {
		t.Fatal("clone shares clusters with source")
	}
}

func TestSerializeDeserializeRoundTrip(t *testing.T) {
	d := mk(t, 1<<22)
	rng := rand.New(rand.NewSource(2))
	type span struct {
		off  int64
		data []byte
	}
	var spans []span
	for i := 0; i < 30; i++ {
		n := rng.Intn(20000) + 1
		off := rng.Int63n(d.VirtualSize() - int64(n))
		data := make([]byte, n)
		rng.Read(data)
		d.WriteAt(data, off)
		spans = append(spans, span{off, data})
	}
	img := d.Serialize()
	got, err := Deserialize("restored", img)
	if err != nil {
		t.Fatal(err)
	}
	if got.VirtualSize() != d.VirtualSize() {
		t.Fatalf("VirtualSize = %d, want %d", got.VirtualSize(), d.VirtualSize())
	}
	if got.AllocatedClusters() != d.AllocatedClusters() {
		t.Fatalf("AllocatedClusters = %d, want %d", got.AllocatedClusters(), d.AllocatedClusters())
	}
	for _, s := range spans {
		buf := make([]byte, len(s.data))
		got.ReadAt(buf, s.off)
		if !bytes.Equal(buf, s.data) {
			t.Fatalf("span at %d mismatches after round trip", s.off)
		}
	}
}

func TestSerializeIsSparse(t *testing.T) {
	d := mk(t, 1<<30) // 1 GiB virtual
	d.WriteAt([]byte("tiny"), 0)
	img := d.Serialize()
	// One data cluster + one L2 table + L1 + header: far below virtual size.
	if len(img) > 64*DefaultClusterSize {
		t.Fatalf("serialized size %d not sparse", len(img))
	}
}

func TestSerializeFlattensBacking(t *testing.T) {
	parent := mk(t, 1<<20)
	parent.WriteAt([]byte("base-data"), 0)
	child := parent.NewChild("child")
	child.WriteAt([]byte("child-data"), 8192)

	got, err := Deserialize("r", child.Serialize())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 9)
	got.ReadAt(buf, 0)
	if string(buf) != "base-data" {
		t.Fatalf("backing data lost in serialization: %q", buf)
	}
}

func TestSerializeDeterministic(t *testing.T) {
	mkDisk := func() *Disk {
		d := New("det", 1<<20, DefaultClusterSize)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 10; i++ {
			data := make([]byte, 5000)
			rng.Read(data)
			d.WriteAt(data, rng.Int63n(1<<20-5000))
		}
		return d
	}
	a := mkDisk().Serialize()
	b := mkDisk().Serialize()
	if !bytes.Equal(a, b) {
		t.Fatal("serialization not deterministic")
	}
}

func TestDeserializeRejectsCorrupt(t *testing.T) {
	if _, err := Deserialize("x", []byte("garbage")); err == nil {
		t.Fatal("accepted garbage")
	}
	d := mk(t, 1<<20)
	d.WriteAt([]byte("data"), 0)
	img := d.Serialize()
	if _, err := Deserialize("x", img[:len(img)-100]); err == nil {
		t.Fatal("accepted truncated image")
	}
	bad := append([]byte{}, img...)
	bad[0] = 'X'
	if _, err := Deserialize("x", bad); err == nil {
		t.Fatal("accepted bad magic")
	}
	// Header counts that lie about the bytes behind them (an image can
	// arrive off the network): each must be an error — not a panic, and
	// not an allocation sized by the lie.
	for name, edit := range map[string]func(h []byte){
		"cluster size 1":       func(h []byte) { binary.BigEndian.PutUint32(h[8:], 1) },
		"cluster size 2 GiB":   func(h []byte) { binary.BigEndian.PutUint32(h[8:], 1<<31) },
		"negative virtual":     func(h []byte) { binary.BigEndian.PutUint64(h[12:], 1<<63) },
		"huge virtual size":    func(h []byte) { binary.BigEndian.PutUint64(h[12:], 1<<62) },
		"negative L2 count":    func(h []byte) { binary.BigEndian.PutUint64(h[20:], ^uint64(0)) },
		"L2 count beyond file": func(h []byte) { binary.BigEndian.PutUint64(h[20:], 1<<40) },
	} {
		bad := append([]byte{}, img...)
		edit(bad)
		if _, err := Deserialize("x", bad); err == nil {
			t.Fatalf("accepted header with %s", name)
		}
	}
}

func TestNewPanicsOnBadClusterSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New("bad", 100, 1000) // not a power of two
}

// TestQuickReadAfterWrite: arbitrary write sequences, then every written
// span reads back exactly; overlapping writes apply in order.
func TestQuickReadAfterWrite(t *testing.T) {
	type op struct {
		Off  uint32
		Data []byte
	}
	err := quick.Check(func(ops []op) bool {
		const size = 1 << 18
		d := New("q", size, 512)
		shadow := make([]byte, size)
		for _, o := range ops {
			off := int64(o.Off % (size - 1))
			n := len(o.Data)
			if int64(n) > size-off {
				n = int(size - off)
			}
			d.WriteAt(o.Data[:n], off)
			copy(shadow[off:off+int64(n)], o.Data[:n])
		}
		got := make([]byte, size)
		d.ReadAt(got, 0)
		return bytes.Equal(got, shadow)
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Fatal(err)
	}
}

// TestQuickSerializeRoundTrip: serialization preserves full disk contents
// for arbitrary writes.
func TestQuickSerializeRoundTrip(t *testing.T) {
	type op struct {
		Off  uint16
		Data []byte
	}
	err := quick.Check(func(ops []op) bool {
		const size = 1 << 16
		d := New("q", size, 512)
		for _, o := range ops {
			off := int64(o.Off) % (size - 1)
			n := len(o.Data)
			if int64(n) > size-off {
				n = int(size - off)
			}
			d.WriteAt(o.Data[:n], off)
		}
		got, err := Deserialize("r", d.Serialize())
		if err != nil {
			return false
		}
		a := make([]byte, size)
		b := make([]byte, size)
		d.ReadAt(a, 0)
		got.ReadAt(b, 0)
		return bytes.Equal(a, b)
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWriteAt(b *testing.B) {
	d := New("bench", 1<<26, DefaultClusterSize)
	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(4)).Read(data)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.WriteAt(data, int64(i%512)*int64(len(data)))
	}
}

func BenchmarkSerialize(b *testing.B) {
	d := New("bench", 1<<24, DefaultClusterSize)
	data := make([]byte, 1<<22)
	rand.New(rand.NewSource(5)).Read(data)
	d.WriteAt(data, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Serialize()
	}
}
