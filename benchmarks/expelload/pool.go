package main

import (
	"fmt"
	"sync"

	"expelliarmus/internal/builder"
	"expelliarmus/internal/catalog"
	"expelliarmus/internal/fstree"
	"expelliarmus/internal/pkgmeta"
	"expelliarmus/internal/pkgmgr"
	"expelliarmus/internal/vdisk"
	"expelliarmus/internal/vmi"
)

// Images handed to the system under test are never mutated by the load
// generator after the pool is built: HTTP publishes only serialize them,
// and direct (ladder) publishes consume a Clone. Variants are
// copy-on-write children of a shared parent disk, so a pool of hundreds
// costs little more than their differing clusters.

const (
	variantDataBytes = 64 << 10 // user-data payload that makes a catalog variant unique
	bulkPayloadBytes = 32 << 20 // opaque payload of a bulk_stream image
	bulkTagBytes     = 4 << 10  // per-variant file that makes each bulk base blob distinct
)

// scale sizes the inputs. Every reported number comes from fullScale; the
// package's smoke test shrinks it to stay fast.
type scale struct {
	templates   []catalog.Template
	bulkPayload int
}

func fullScale() scale { return scale{templates: catalog.Paper19(), bulkPayload: bulkPayloadBytes} }

// buildCatalog builds the templates' images (the 19 of Table II), two at
// a time.
func buildCatalog(tpls []catalog.Template) ([]*vmi.Image, error) {
	imgs := make([]*vmi.Image, len(tpls))
	errs := make([]error, len(tpls))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < loadClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One builder per goroutine: the universe caches generated
			// package content.
			b := builder.New(catalog.NewUniverse())
			for i := range next {
				imgs[i], errs[i] = b.Build(tpls[i])
			}
		}()
	}
	for i := range tpls {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return imgs, nil
}

// variant describes one derived image and the content that must come back
// verbatim when it is retrieved.
type variant struct {
	img      *vmi.Image
	dataPath string
	data     []byte
	bytes    int64 // serialized size as published
}

// catalogVariant clones parent under a new name and adds one seed-derived
// user-data file — the one component the repository must preserve
// verbatim, so every publish stores something new while packages and base
// dedupe against the parent.
func catalogVariant(parent *vmi.Image, name string, contentSeed uint64) (*variant, error) {
	disk := parent.Disk.NewChild(name)
	fs, err := fstree.Mount(disk)
	if err != nil {
		return nil, fmt.Errorf("variant %s: %w", name, err)
	}
	const dir = "/home/expelload"
	if err := fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("variant %s: %w", name, err)
	}
	v := &variant{
		dataPath: dir + "/variant.bin",
		data:     catalog.GenContent(contentSeed, variantDataBytes),
	}
	if err := fs.WriteFile(v.dataPath, v.data); err != nil {
		return nil, fmt.Errorf("variant %s: %w", name, err)
	}
	v.img = &vmi.Image{
		Name:      name,
		Base:      parent.Base,
		Primaries: append([]string(nil), parent.Primaries...),
		Disk:      disk,
	}
	v.bytes = disk.SerializedBytes()
	return v, nil
}

// buildBulkParent builds a minimal publishable image — the essential base
// OS, no primaries — carrying payload bytes of opaque content outside
// package management and outside the user-data roots, so the payload
// lands in the decomposed base image and every publish and retrieval
// streams it. 4 KiB clusters keep directory overhead small at this size.
func buildBulkParent(contentSeed uint64, payload int) (*vmi.Image, error) {
	uni := catalog.NewUniverse()
	names, err := pkgmgr.Closure(uni, uni.EssentialNames())
	if err != nil {
		return nil, fmt.Errorf("bulk: %w", err)
	}
	var content int64
	files := 0
	for _, n := range names {
		spec, _ := uni.Spec(n)
		content += catalog.Real(spec.InstalledSize)
		files += catalog.RealFiles(spec.FileCount) + 1
	}
	const cluster = vdisk.DefaultClusterSize
	maxInodes := uint32(files+files/4+128) + 512
	size := content*3 + int64(payload) + int64(payload)/8 + int64(maxInodes)*64*2 + 8<<20
	size = (size + cluster - 1) / cluster * cluster

	disk := vdisk.New("bulk-parent", size, cluster)
	fs, err := fstree.Format(disk, maxInodes)
	if err != nil {
		return nil, fmt.Errorf("bulk: %w", err)
	}
	mgr, err := pkgmgr.New(fs)
	if err != nil {
		return nil, fmt.Errorf("bulk: %w", err)
	}
	order, err := pkgmgr.InstallOrder(uni, names)
	if err != nil {
		return nil, fmt.Errorf("bulk: %w", err)
	}
	for _, group := range order {
		for _, n := range group {
			spec, _ := uni.Spec(n)
			pf, err := uni.FilesFor(n)
			if err != nil {
				return nil, fmt.Errorf("bulk: %w", err)
			}
			if err := mgr.InstallPackage(spec.Package, pf); err != nil {
				return nil, fmt.Errorf("bulk: install %s: %w", n, err)
			}
		}
	}
	if err := fs.MkdirAll("/opt/bulk"); err != nil {
		return nil, fmt.Errorf("bulk: %w", err)
	}
	if err := fs.WriteFile("/opt/bulk/payload.bin", catalog.GenContent(contentSeed, payload)); err != nil {
		return nil, fmt.Errorf("bulk: %w", err)
	}
	return &vmi.Image{Name: "bulk-parent", Base: uni.Release().Base, Disk: disk}, nil
}

// bulkVariant derives a bulk image whose base blob is distinct from every
// other variant's (one differing file) and whose base attributes are its
// own, so each publish really stores — and streams — a new base image.
func bulkVariant(parent *vmi.Image, name string, idx int, contentSeed uint64) (*variant, error) {
	disk := parent.Disk.NewChild(name)
	fs, err := fstree.Mount(disk)
	if err != nil {
		return nil, fmt.Errorf("bulk variant %s: %w", name, err)
	}
	v := &variant{
		dataPath: "/opt/bulk/tag.bin",
		data:     catalog.GenContent(contentSeed, bulkTagBytes),
	}
	if err := fs.WriteFile(v.dataPath, v.data); err != nil {
		return nil, fmt.Errorf("bulk variant %s: %w", name, err)
	}
	base := parent.Base
	base.Version = fmt.Sprintf("%s+bulk%d", base.Version, idx)
	v.img = &vmi.Image{Name: name, Base: pkgmeta.BaseAttrs(base), Disk: disk}
	v.bytes = disk.SerializedBytes()
	return v, nil
}
