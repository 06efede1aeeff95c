package fstree

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"expelliarmus/internal/vdisk"
)

// runSchedule drives a seeded random mix of MkdirAll, WriteFile (new and
// replacing), Remove and RemoveAll over a small filesystem through the
// exported API only, remounting half-way. It then fills the disk with
// one-block files, removes two of every three and writes files larger
// than any hole left, so the fragmented fallback has to place them. check, if
// not nil, runs after every step. The result is the disk's serialized
// image: placement decides every byte of it.
func runSchedule(t *testing.T, seed int64, check func(fs *FS, step string)) []byte {
	t.Helper()
	const bs = 512
	rng := rand.New(rand.NewSource(seed))
	fs, err := Format(vdisk.New("sched", 600*bs, bs), 640)
	if err != nil {
		t.Fatal(err)
	}
	step := func(name string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("seed %d: %s: %v", seed, name, err)
		}
		if check != nil {
			check(fs, name)
		}
	}
	content := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	dirs, files := []string{""}, []string{}
	pick := func(s []string) string { return s[rng.Intn(len(s))] }
	drop := func(s []string, prefix string) []string {
		kept := s[:0]
		for _, p := range s {
			if p != prefix && !strings.HasPrefix(p, prefix+"/") {
				kept = append(kept, p)
			}
		}
		return kept
	}

	const steps = 300
	for i := 0; i < steps; i++ {
		if i == steps/2 {
			fs, err = Mount(fs.Disk())
			step("remount", err)
		}
		switch op := rng.Intn(10); {
		case op < 2 && len(dirs) < 40:
			p := fmt.Sprintf("%s/d%d", pick(dirs), i)
			dirs = append(dirs, p)
			if rng.Intn(3) == 0 { // two new components in one call
				p += fmt.Sprintf("/e%d", i)
				dirs = append(dirs, p)
			}
			step("mkdir "+p, fs.MkdirAll(p))
		case op < 6 && len(files) < 120:
			p := fmt.Sprintf("%s/f%d", pick(dirs), i)
			files = append(files, p)
			step("write "+p, fs.WriteFile(p, content(rng.Intn(2500))))
		case op < 8 && len(files) > 0:
			p := pick(files)
			step("replace "+p, fs.WriteFile(p, content(rng.Intn(2500))))
		case op < 9 && len(files) > 0:
			p := pick(files)
			files = drop(files, p)
			step("remove "+p, fs.Remove(p))
		case len(dirs) > 1:
			p := dirs[1+rng.Intn(len(dirs)-1)]
			dirs, files = drop(dirs, p), drop(files, p)
			step("removeall "+p, fs.RemoveAll(p))
		}
	}

	step("mkdir /fill", fs.MkdirAll("/fill"))
	var fill []string
	for i := 0; int64(fs.total-fs.usedBlocks)*int64(fs.blockSize) > 6*bs; i++ {
		p := fmt.Sprintf("/fill/s%03d", i)
		fill = append(fill, p)
		step("fill "+p, fs.WriteFile(p, content(bs)))
	}
	for i, p := range fill {
		if i%3 != 0 { // two-block holes
			step("punch "+p, fs.Remove(p))
		}
	}
	for i := 0; i < 3; i++ {
		p := fmt.Sprintf("/frag%d", i)
		step("frag "+p, fs.WriteFile(p, content((7+i)*bs)))
	}
	sort.Strings(files)
	for _, p := range files { // survivors stay readable to the end
		if _, err := fs.ReadFile(p); err != nil {
			t.Fatalf("seed %d: read %s: %v", seed, p, err)
		}
	}
	return fs.Disk().Serialize()
}

// TestScheduleBytesPinned pins the image runSchedule leaves behind. The
// digests were computed by running this file against the package as it was
// before allocation state moved into memory — when allocInode re-read the
// inode table from inode 0 and allocExtents collected every free run of
// the bitmap for every file — so they hold exactly while inode numbers,
// extents and write order stay what that code chose.
func TestScheduleBytesPinned(t *testing.T) {
	for seed, want := range map[int64]string{
		1: "4a87469f0c03479c6b1acc02456b4c1ad9d8235168daa0f776d6eb0348438547",
		2: "55b5c60aff233af7ba2388b323da991845ddd25b59bb24762bc8faf521ff8d02",
		3: "ee90fa34d79bd0fdc407cf9621e73d46a900def70da3f3767714400bf1920733",
	} {
		sum := sha256.Sum256(runSchedule(t, seed, nil))
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("seed %d: image digest %s, want %s", seed, got, want)
		}
	}
}
