package expelliarmus

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestCatalogBytesPinned pins the bytes the system produces for the whole
// Table II catalog: every image built, published and retrieved, and the
// repository snapshot after. Guest-side block and inode placement decides
// image bytes, so any change to fstree's allocation policy, to the moments
// pkgmgr writes the status file, or to vdisk serialization moves these
// digests. They were computed on the commit before allocation state moved
// into memory; an intended format change re-pins them and says so.
func TestCatalogBytesPinned(t *testing.T) {
	const (
		wantRetrievals = "cdd3921a4f2816351e1bfbec4fef7b2f295d6c95f0aa16ba4473d2dfa9b806e7"
		wantSnapshot   = "5b5fc9ef25ffe72a9e54d9a5ac22074c7d4727d349bde9d8b8469f0db82fdb68"
	)
	sys := New()
	for _, name := range Templates() {
		img, err := sys.BuildImage(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Publish(img); err != nil {
			t.Fatal(err)
		}
	}
	all := sha256.New()
	for _, name := range Templates() {
		h := sha256.New()
		if _, _, err := sys.RetrieveTo(h, name); err != nil {
			t.Fatal(err)
		}
		all.Write(h.Sum(nil))
	}
	if got := hex.EncodeToString(all.Sum(nil)); got != wantRetrievals {
		t.Errorf("retrieved catalog digest = %s, want %s", got, wantRetrievals)
	}
	snap, err := sys.Save()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(snap)
	if got := hex.EncodeToString(sum[:]); got != wantSnapshot {
		t.Errorf("snapshot digest = %s, want %s", got, wantSnapshot)
	}
}
