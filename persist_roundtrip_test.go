package expelliarmus

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// mustSave unwraps Save, failing the test on a snapshot error (healthy
// backends never produce one).
func mustSave(t *testing.T, sys *System) []byte {
	t.Helper()
	snap, err := sys.Save()
	if err != nil {
		t.Fatalf("Save: %v", err)
	}
	return snap
}

// publishCatalog publishes every Table II template into sys and returns a
// deterministic trace of the publish reports.
func publishCatalog(t *testing.T, sys *System) string {
	t.Helper()
	var trace string
	for _, name := range Templates() {
		img, err := sys.BuildImage(name)
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		pub, err := sys.Publish(img)
		if err != nil {
			t.Fatalf("publish %s: %v", name, err)
		}
		trace += fmt.Sprintf("%s sim=%.6f exported=%v skipped=%d base=%v t=%.6f\n",
			name, pub.Similarity, pub.Exported, pub.Skipped, pub.BaseStored, pub.Seconds)
	}
	return trace
}

// retrieveCatalog retrieves every Table II VMI from sys and returns a
// deterministic trace of the retrieval reports (imported packages, modeled
// seconds, phase decomposition — %v prints maps key-sorted).
func retrieveCatalog(t *testing.T, sys *System) string {
	t.Helper()
	var trace string
	for _, name := range Templates() {
		img, ret, err := sys.Retrieve(name)
		if err != nil {
			t.Fatalf("retrieve %s: %v", name, err)
		}
		if img == nil {
			t.Fatalf("retrieve %s: nil image", name)
		}
		trace += fmt.Sprintf("%s imported=%v t=%.6f phases=%v\n", name, ret.Imported, ret.Seconds, ret.Phases)
	}
	return trace
}

// TestRoundTripDiskMatchesMemory is the cross-backend round-trip property
// test: the Table II catalog published through the public facade must
// yield byte-identical Save() snapshots, identical repository stats and
// identical publish/retrieval reports whether the repository runs on the
// in-memory backend or the disk backend — and the disk repository must
// still match after Sync, Close and a real reopen from the on-disk files.
func TestRoundTripDiskMatchesMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("round-trip test skipped in -short mode")
	}

	mem := New()
	memPub := publishCatalog(t, mem)
	memSnap := mustSave(t, mem)
	memStats := mem.RepoStats()
	memRet := retrieveCatalog(t, mem)

	dir := t.TempDir()
	dsk, err := OpenAt(dir, Options{})
	if err != nil {
		t.Fatalf("OpenAt: %v", err)
	}
	dskPub := publishCatalog(t, dsk)
	if dskPub != memPub {
		t.Fatalf("publish reports differ between backends:\nmemory:\n%s\ndisk:\n%s", memPub, dskPub)
	}
	if dskSnap := mustSave(t, dsk); !bytes.Equal(dskSnap, memSnap) {
		t.Fatalf("disk Save() differs from memory Save(): %d vs %d bytes", len(dskSnap), len(memSnap))
	}
	// Logical catalog only: DiskGB/DeadGB describe the disk backend's
	// physical footprint, which the memory reference rightly lacks.
	dskStats, refStats := dsk.RepoStats(), memStats
	dskStats.DiskGB, dskStats.DeadGB = 0, 0
	refStats.DiskGB, refStats.DeadGB = 0, 0
	if dskStats != refStats {
		t.Fatalf("repo stats differ: disk %+v, memory %+v", dskStats, refStats)
	}
	if dskRet := retrieveCatalog(t, dsk); dskRet != memRet {
		t.Fatalf("retrieval reports differ between backends:\nmemory:\n%s\ndisk:\n%s", memRet, dskRet)
	}
	if _, err := dsk.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := dsk.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	re, err := OpenAt(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if reSnap := mustSave(t, re); !bytes.Equal(reSnap, memSnap) {
		t.Fatalf("reopened Save() differs from memory Save(): %d vs %d bytes", len(reSnap), len(memSnap))
	}
	reStats := re.RepoStats()
	reStats.DiskGB, reStats.DeadGB = 0, 0
	if reStats != refStats {
		t.Fatalf("reopened repo stats differ: %+v vs %+v", reStats, refStats)
	}
	if reRet := retrieveCatalog(t, re); reRet != memRet {
		t.Fatalf("retrieval reports differ after reopen:\nmemory:\n%s\nreopened:\n%s", memRet, reRet)
	}
}

// TestOpenAtDurabilityAcrossSessions exercises the facade durability
// story end to end: publish a few images, Sync, publish one more, Close
// (which syncs), reopen, and check the catalog — including the image
// published after the explicit Sync — plus the incremental property that
// the second Sync writes less than the first.
func TestOpenAtDurabilityAcrossSessions(t *testing.T) {
	dir := t.TempDir()
	sys, err := OpenAt(dir, Options{})
	if err != nil {
		t.Fatalf("OpenAt: %v", err)
	}
	names := []string{"Mini", "Redis", "Base"}
	for _, name := range names {
		img, err := sys.BuildImage(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Publish(img); err != nil {
			t.Fatal(err)
		}
	}
	first, err := sys.Sync()
	if err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if first.SegmentBytes == 0 || first.MetaBytes == 0 {
		t.Fatalf("first sync wrote nothing: %+v", first)
	}

	img, err := sys.BuildImage("MongoDb")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Publish(img); err != nil {
		t.Fatal(err)
	}
	second, err := sys.Sync()
	if err != nil {
		t.Fatalf("second Sync: %v", err)
	}
	if second.SegmentBytes == 0 {
		t.Fatalf("second sync wrote no blob bytes for the new image")
	}
	if second.SegmentBytes >= first.SegmentBytes {
		t.Fatalf("second sync (%d bytes) not smaller than first (%d bytes): sync is not incremental",
			second.SegmentBytes, first.SegmentBytes)
	}
	if err := sys.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// The closed repository holds the commit record, exactly one metadata
	// snapshot + WAL pair, and blob files.
	if _, err := os.Stat(filepath.Join(dir, "meta.commit")); err != nil {
		t.Fatalf("meta.commit missing: %v", err)
	}
	for _, pat := range []string{"meta.snap-*", "meta.wal-*"} {
		if m, _ := filepath.Glob(filepath.Join(dir, pat)); len(m) != 1 {
			t.Fatalf("want exactly one %s file, got %v", pat, m)
		}
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "blobs", "*")); len(segs) == 0 {
		t.Fatalf("no blob files under %s/blobs", dir)
	}

	re, err := OpenAt(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	for _, name := range append(names, "MongoDb") {
		if _, _, err := re.Retrieve(name); err != nil {
			t.Fatalf("retrieve %s after reopen: %v", name, err)
		}
	}

	// Sync on a memory-backed system must refuse rather than silently
	// not persist.
	if _, err := New().Sync(); err == nil {
		t.Fatalf("Sync on memory-backed system did not error")
	}

	// A second OpenAt on the live repository (re is still open) must be
	// refused: two instances appending to the same segment files would
	// corrupt each other.
	if _, err := OpenAt(dir, Options{}); err == nil {
		t.Fatalf("concurrent OpenAt on a locked repository succeeded")
	}
}
