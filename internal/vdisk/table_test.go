package vdisk

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"maps"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// imageMap reads the clusters a serialized image maps, and where each one's
// data sits, straight from its tables, in cluster order. It trusts the
// image: its tables must lie inside it.
func imageMap(img []byte) (clusters, offsets []int64) {
	cs := int64(binary.BigEndian.Uint32(img[8:]))
	numL2 := int64(binary.BigEndian.Uint64(img[20:]))
	l1 := img[(headerSize+cs-1)/cs*cs:]
	for t := range numL2 {
		l2 := int64(binary.BigEndian.Uint64(l1[t*8:]))
		if l2 == 0 {
			continue
		}
		for e := range cs / 8 {
			if off := int64(binary.BigEndian.Uint64(img[l2+e*8:])); off != 0 {
				clusters, offsets = append(clusters, t*(cs/8)+e), append(offsets, off)
			}
		}
	}
	return clusters, offsets
}

// modelDisk pairs a disk with the oracle of the clusters it holds itself
// (local or lazily backed, not discarded), whose serialized cluster set is
// the sorted union of its own and its backing's, and of the bytes it reads.
type modelDisk struct {
	d       *Disk
	own     map[int64]bool
	data    []byte
	backing *modelDisk
}

func (m *modelDisk) write(t *testing.T, off int64, p []byte) {
	t.Helper()
	if _, err := m.d.WriteAt(p, off); err != nil {
		t.Fatal(err)
	}
	cs := int64(m.d.ClusterSize())
	for ci := off / cs; ci <= (off+int64(len(p))-1)/cs; ci++ {
		m.own[ci] = true
	}
	copy(m.data[off:], p)
}

// discard discards [off, off+n); a discarded cluster reads as its backing's
// or as zeros.
func (m *modelDisk) discard(off, n int64) {
	m.d.Discard(off, n)
	cs := int64(m.d.ClusterSize())
	for ci := (off + cs - 1) / cs; ci < (off+n)/cs; ci++ {
		delete(m.own, ci)
		if m.backing != nil {
			copy(m.data[ci*cs:(ci+1)*cs], m.backing.data[ci*cs:])
		} else {
			clear(m.data[ci*cs : (ci+1)*cs])
		}
	}
}

func (m *modelDisk) want() []int64 {
	set := map[int64]bool{}
	for l := m; l != nil; l = l.backing {
		maps.Copy(set, l.own)
	}
	return slices.Sorted(maps.Keys(set))
}

func (m *modelDisk) check(t *testing.T, what string) {
	t.Helper()
	got, _ := imageMap(m.d.Serialize())
	if want := m.want(); !slices.Equal(got, want) {
		t.Fatalf("%s: serialized clusters %v, oracle %v", what, got, want)
	}
	if got, want := m.d.AllocatedClusters(), len(m.own); got != want {
		t.Fatalf("%s: AllocatedClusters %d, oracle %d", what, got, want)
	}
	read := make([]byte, len(m.data))
	if _, err := m.d.ReadAt(read, 0); err != nil || !bytes.Equal(read, m.data) {
		t.Fatalf("%s: the disk reads other bytes than were written (%v)", what, err)
	}
}

// TestWalkMatchesSortedOracle: the cluster set a disk serializes — its
// tables walked in cluster order — is the sorted union of what each layer
// holds, and the disk reads what was written, after random writes,
// discards, rewrites of discarded clusters, local clusters written,
// discarded and written elsewhere (so their arena slots are reused),
// Clones and CloneOvers, on a lazy disk and on a child backed by one. A
// disk left behind by a clone still serializes as it did.
func TestWalkMatchesSortedOracle(t *testing.T) {
	_, img := mkLazyFixture(t)
	fixture, _ := imageMap(img)
	rng := rand.New(rand.NewPCG(1, 2))
	for round := range 20 {
		lazy := &modelDisk{d: lazyOf(t, img), own: map[int64]bool{}}
		for _, ci := range fixture {
			lazy.own[ci] = true
		}
		lazy.data = make([]byte, lazy.d.VirtualSize())
		if _, err := lazy.d.ReadAt(lazy.data, 0); err != nil {
			t.Fatal(err)
		}
		m := lazy
		if round%2 == 1 {
			m = &modelDisk{d: lazy.d.NewChild("child"), own: map[int64]bool{}, data: slices.Clone(lazy.data), backing: lazy}
		}
		type left struct {
			d   *Disk
			img []byte
		}
		var behind []left
		cs := int64(m.d.ClusterSize())
		for op := range 40 {
			off := rng.Int64N(m.d.VirtualSize() - 9000)
			switch k := rng.IntN(7); k {
			case 0, 1:
				m.discard(off, rng.Int64N(20000))
			case 2:
				behind = append(behind, left{m.d, m.d.Serialize()})
				c := m.d.Clone(fmt.Sprint("clone", op))
				if rng.IntN(2) == 0 {
					c = m.d.CloneOver(fmt.Sprint("over", op), bytes.NewReader(img))
				}
				m = &modelDisk{d: c, own: maps.Clone(m.own), data: slices.Clone(m.data), backing: m.backing}
			case 3:
				// Whole local clusters written, discarded, and written again
				// here and elsewhere, in part and whole.
				at, n := off/cs*cs, (1+rng.Int64N(4))*cs
				m.write(t, at, bytes.Repeat([]byte{byte(op)}, int(n)))
				m.discard(at, n)
				m.write(t, rng.Int64N(m.d.VirtualSize()-n)/cs*cs, bytes.Repeat([]byte{byte(op) + 1}, int(n)))
				m.write(t, at+cs/2, []byte{byte(op) + 2})
			default:
				m.write(t, off, bytes.Repeat([]byte{byte(op)}, int(1+rng.Int64N(9000))))
			}
			m.check(t, fmt.Sprintf("round %d, op %d", round, op))
		}
		for i, b := range behind {
			if !bytes.Equal(b.d.Serialize(), b.img) {
				t.Fatalf("round %d: the disk left behind by clone %d changed", round, i)
			}
		}
	}
}

// TestCloneCopyOnWriteIsolation: a template and two clones of it share
// index pages and arena chunks, yet writes and discards on any one of them
// — into a shared page, a shared chunk, a lazily backed cluster or a page
// none had, and writes after discards made before and after the clone —
// never show in the others, and no shared chunk changes: a slot a discard
// freed in one is never reused.
func TestCloneCopyOnWriteIsolation(t *testing.T) {
	const cs = 256 // 32 clusters per index page, 256 per chunk
	plain := New("plain", 1<<20, cs)
	for ci := range int64(100) {
		if _, err := plain.WriteAt(fill(cs, 'p', ci), ci*cs); err != nil {
			t.Fatal(err)
		}
	}
	img := plain.Serialize()
	plain.Discard(60*cs, 4*cs) // freed before the clones
	lazy, err := DeserializeLazy("lazy", bytes.NewReader(img), int64(len(img)))
	if err != nil {
		t.Fatal(err)
	}
	// The lazy template holds local clusters and discards of its own too.
	if _, err := lazy.WriteAt(fill(cs, 'l', 40), 40*cs); err != nil {
		t.Fatal(err)
	}
	lazy.Discard(41*cs, cs)
	lazy.Discard(40*cs, cs)
	if _, err := lazy.WriteAt(fill(cs, 'l', 40), 40*cs); err != nil { // a freed slot reused
		t.Fatal(err)
	}
	for _, tmpl := range []*Disk{plain, lazy} {
		a, b := tmpl.Clone("a"), tmpl.CloneOver("b", bytes.NewReader(img))
		disks := []*Disk{tmpl, a, b}
		want := make([][]byte, len(disks))
		for i, d := range disks {
			want[i] = d.Serialize()
		}
		var shared [][]byte // the bytes of the chunks the three share
		for _, c := range tmpl.chunks {
			shared = append(shared, slices.Clone(c.s))
		}
		edits := []func(d *Disk, tag byte){
			func(d *Disk, tag byte) { d.WriteAt([]byte{tag}, 5*cs+7) },        // partial, shared page and chunk
			func(d *Disk, tag byte) { d.WriteAt(fill(cs, tag, 6), 6*cs) },     // whole cluster
			func(d *Disk, tag byte) { d.WriteAt([]byte{tag}, 40*cs+1) },       // the template's local cluster
			func(d *Disk, tag byte) { d.Discard(7*cs, 2*cs) },                 // discard lazy or local
			func(d *Disk, tag byte) { d.WriteAt([]byte{tag}, 41*cs) },         // over a discarded cluster
			func(d *Disk, tag byte) { d.WriteAt(fill(cs, tag, 900), 900*cs) }, // a page none had
			func(d *Disk, tag byte) { d.Discard(10*cs, 3*cs) },                // shared local clusters
			func(d *Disk, tag byte) { d.WriteAt(fill(cs, tag, 70), 70*cs) },   // after both discards
			func(d *Disk, tag byte) { d.WriteAt([]byte{tag}, 71*cs+3) },
			func(d *Disk, tag byte) { d.Discard(900*cs, cs) },                 // its own local cluster
			func(d *Disk, tag byte) { d.WriteAt(fill(cs, tag, 901), 901*cs) }, // takes that slot again
		}
		for i, d := range disks {
			tag := byte('A' + i)
			for _, edit := range edits {
				edit(d, tag)
			}
			want[i] = d.Serialize()
			for j, o := range disks {
				if !bytes.Equal(o.Serialize(), want[j]) {
					t.Fatalf("%s: editing disk %d changed disk %d", tmpl.Name(), i, j)
				}
			}
			got := make([]byte, 1)
			if _, err := d.ReadAt(got, 5*cs+7); err != nil || got[0] != tag {
				t.Fatalf("%s: disk %d reads %q at its own write, %v", tmpl.Name(), i, got, err)
			}
			for k, c := range shared {
				if !bytes.Equal(tmpl.chunks[k].s, c) {
					t.Fatalf("%s: editing disk %d wrote into shared chunk %d", tmpl.Name(), i, k)
				}
			}
		}
	}
}

// TestFlattenForgetsFreedSlots: clusters discarded before a Flatten leave
// no slot behind that a later write could take from under a live cluster.
func TestFlattenForgetsFreedSlots(t *testing.T) {
	const cs = 256
	d := New("flat", 1<<20, cs)
	for ci := range int64(64) {
		if _, err := d.WriteAt(fill(cs, 'a', ci), ci*cs); err != nil {
			t.Fatal(err)
		}
	}
	d.Discard(0, 32*cs)
	if err := d.Flatten(); err != nil {
		t.Fatal(err)
	}
	for ci := range int64(32) {
		if _, err := d.WriteAt(fill(cs, 'b', ci), (100+ci)*cs); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]byte, cs)
	for ci := range int64(64) {
		want, at := fill(cs, 'a', ci), ci
		if ci < 32 {
			want, at = fill(cs, 'b', ci), 100+ci
		}
		if _, err := d.ReadAt(got, at*cs); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("cluster %d reads other bytes after the Flatten and the new writes (%v)", at, err)
		}
	}
}

// TestRewriteReusesArena counts chunks, not bytes: rewriting the same n
// whole clusters k times, each rewrite a discard and a write as fstree's
// file rewrites are, takes no more chunks than n clusters need, plus one.
// (When discarded slots were not reused it took k times that.)
func TestRewriteReusesArena(t *testing.T) {
	const cs, n, k = 256, 1000, 8
	d := New("rewrite", 1<<20, cs)
	data := bytes.Repeat([]byte{1}, n*cs)
	for range k {
		d.Discard(0, n*cs)
		if _, err := d.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
	}
	perChunk := arenaChunk / cs
	if limit := (n+perChunk-1)/perChunk + 1; len(d.chunks) > limit {
		t.Fatalf("%d rewrites of %d clusters took %d chunks, want at most %d", k, n, len(d.chunks), limit)
	}
}

// TestConcurrentClonesOfTemplate: goroutines clone one template at once,
// as the base memo's readers do, and each writes and serializes its own
// clone; no clone sees another's writes and the template stays as it was.
func TestConcurrentClonesOfTemplate(t *testing.T) {
	_, img := mkLazyFixture(t)
	tmpl := lazyOf(t, img).CloneOver("template", nil)
	want := tmpl.CloneOver("reference", bytes.NewReader(img)).Serialize()
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				c := tmpl.CloneOver("clone", bytes.NewReader(img))
				c.Discard(0, 8192)
				if _, err := c.WriteAt(bytes.Repeat([]byte{byte(g)}, 5000), 100000); err != nil {
					t.Error(err)
					return
				}
				got := make([]byte, 5000)
				if _, err := c.ReadAt(got, 100000); err != nil || !bytes.Equal(got, bytes.Repeat([]byte{byte(g)}, 5000)) {
					t.Errorf("goroutine %d reads another's write, %v", g, err)
					return
				}
				c.Serialize()
			}
		}()
	}
	wg.Wait()
	if !bytes.Equal(tmpl.CloneOver("after", bytes.NewReader(img)).Serialize(), want) {
		t.Fatal("concurrent clones changed their template")
	}
}

// TestWriteToAllocsCounted: writing n whole clusters allocates per index
// page and per arena chunk, not per cluster, and a clone, a write and a
// serialization add a constant: the script stays within n/16 allocations
// plus 64. (With a map per cluster it made more than n.) The cluster size
// is the catalog's, 256 bytes.
func TestWriteToAllocsCounted(t *testing.T) {
	const cs, n = 256, 4096
	data := bytes.Repeat([]byte{7}, cs)
	allocs := testing.AllocsPerRun(5, func() {
		d := New("gate", 4*n*cs, cs)
		for ci := range int64(n) {
			if _, err := d.WriteAt(data, ci*cs); err != nil {
				t.Fatal(err)
			}
		}
		c := d.Clone("clone")
		if _, err := c.WriteAt(data[:1], 3*cs); err != nil {
			t.Fatal(err)
		}
		if _, err := c.WriteTo(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations for %d clusters", allocs, n)
	if limit := float64(n/16 + 64); allocs > limit {
		t.Fatalf("%.0f allocations for %d clusters, want at most %.0f", allocs, n, limit)
	}
}

// maxTablesImage is a 64 KiB image whose header declares the largest
// virtual size its L1 table has room for, every L1 entry pointing at one
// L2 table that maps the image's last cluster, and as many data clusters
// as that maps.
func maxTablesImage(cs int64) []byte {
	const size = 64 << 10
	img := make([]byte, size)
	copy(img, Magic)
	l1Start := (headerSize + cs - 1) / cs * cs
	numL2 := (size - l1Start) / 8
	binary.BigEndian.PutUint32(img[4:], 1)
	binary.BigEndian.PutUint32(img[8:], uint32(cs))
	binary.BigEndian.PutUint64(img[12:], uint64(numL2*(cs/8)*cs))
	binary.BigEndian.PutUint64(img[20:], uint64(numL2))
	binary.BigEndian.PutUint64(img[28:], uint64(numL2))
	l2 := size - cs // the L2 table shares the last cluster with its data
	for t := range numL2 {
		binary.BigEndian.PutUint64(img[l1Start+t*8:], uint64(l2))
	}
	binary.BigEndian.PutUint64(img[l2:], uint64(l2))
	return img
}

// TestDeserializeAllocationBoundedByImage: a 64 KiB image declaring the
// largest virtual size and L2 count its L1 table allows is refused, or
// decoded in at most 8 bytes allocated per image byte: the offset pages
// hold one entry per L1 slot and one page per L2 table present, never a
// table sized by the virtual size.
func TestDeserializeAllocationBoundedByImage(t *testing.T) {
	for _, cs := range []int64{8, 64, 512, 4096} {
		img := maxTablesImage(cs)
		for _, count := range []bool{true, false} {
			if !count { // the same header with empty tables and no clusters
				binary.BigEndian.PutUint64(img[28:], 0)
				clear(img[(headerSize+cs-1)/cs*cs:])
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			d, err := DeserializeLazy("max", bytes.NewReader(img), int64(len(img)))
			runtime.ReadMemStats(&after)
			bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(img))
			t.Logf("cluster size %d, clusters declared %v: err %v, %.2f bytes allocated per image byte", cs, count, err, bytesPer)
			if bytesPer > 8 {
				t.Fatalf("cluster size %d: decoding allocated %.2f bytes per image byte", cs, bytesPer)
			}
			if err == nil {
				if _, err := d.WriteTo(io.Discard); err != nil {
					t.Fatalf("cluster size %d: a decoded disk does not serialize: %v", cs, err)
				}
			}
		}
	}
}

// FuzzDeserializeLazy: decoding never panics, and a disk that decodes
// serializes to an image mapping the same clusters to the same bytes.
func FuzzDeserializeLazy(f *testing.F) {
	_, img := mkLazyFixture(f)
	small := New("small", 1<<16, 512)
	small.WriteAt([]byte("seed"), 3000)
	f.Add(img)
	f.Add(small.Serialize())
	f.Add(maxTablesImage(8))
	f.Add(maxTablesImage(512))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DeserializeLazy("fuzz", bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if _, err := d.WriteTo(&out); err != nil {
			t.Fatalf("a decoded disk does not serialize: %v", err)
		}
		if _, err := DeserializeLazy("again", bytes.NewReader(out.Bytes()), int64(out.Len())); err != nil {
			t.Fatalf("the serialized image does not decode: %v", err)
		}
		cs := int64(d.ClusterSize())
		in, inOffs := imageMap(data)
		got, gotOffs := imageMap(out.Bytes())
		if !slices.Equal(in, got) {
			t.Fatalf("clusters %v decoded, %v serialized", in, got)
		}
		for i := range in {
			if !bytes.Equal(data[inOffs[i]:inOffs[i]+cs], out.Bytes()[gotOffs[i]:gotOffs[i]+cs]) {
				t.Fatalf("cluster %d serialized with other bytes", in[i])
			}
		}
	})
}
