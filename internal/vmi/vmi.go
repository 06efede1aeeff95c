// Package vmi defines the virtual machine image model of Sec. III-A: an
// image I = (BI, PS, DS, Data) materialised as a virtual disk with a guest
// filesystem, plus the metadata (base-image attributes and primary package
// set) that accompanies an upload.
package vmi

import (
	"fmt"
	"slices"

	"expelliarmus/internal/fstree"
	"expelliarmus/internal/pkgmeta"
	"expelliarmus/internal/vdisk"
)

// UserDataRoots are the guest directories holding the user Data component
// of a VMI — content "not recognized by the guest OS package management"
// (Sec. III-A) that every storage system preserves verbatim.
var UserDataRoots = []string{"/home", "/root", "/srv"}

// ChurnRoots are the guest directories the running system fills with
// instance churn: logs, caches, spools and temporary files.
var ChurnRoots = []string{"/var/log", "/var/cache", "/var/spool", "/tmp"}

// SysprepPaths are the guest paths a virt-sysprep style reset clears
// (Algorithm 3 line 4): the churn and user data roots and the instance
// identity files. The package database under /var/lib/dpkg survives.
var SysprepPaths = slices.Concat(ChurnRoots, UserDataRoots,
	[]string{"/etc/machine-id", "/etc/hostname"})

// Image is a VMI: disk content plus upload metadata. The primary package
// set PS is what the user declares when publishing ("the user uploads a
// VMI and a list of primary packages", Sec. IV-A); the dependency set DS
// and Data live inside the disk.
type Image struct {
	// Name identifies the image (e.g. "Redis" or "IDE-build-07").
	Name string
	// Base holds the base-image attribute quadruple attrs(BI).
	Base pkgmeta.BaseAttrs
	// Primaries is the declared primary package set PS.
	Primaries []string
	// Disk is the image content.
	Disk *vdisk.Disk
}

// Mount opens the guest filesystem.
func (im *Image) Mount() (*fstree.FS, error) {
	fs, err := fstree.Mount(im.Disk)
	if err != nil {
		return nil, fmt.Errorf("vmi %s: %w", im.Name, err)
	}
	return fs, nil
}

// Serialize encodes the disk in its qcow2-like on-disk form.
func (im *Image) Serialize() []byte { return im.Disk.Serialize() }

// Clone returns an independent deep copy (same metadata, copied disk) for
// a caller that goes on to change it, a variant say. Publishing needs no
// copy: no store writes the image it is given.
func (im *Image) Clone() *Image {
	return &Image{
		Name:      im.Name,
		Base:      im.Base,
		Primaries: append([]string(nil), im.Primaries...),
		Disk:      im.Disk.Clone(im.Name + "-clone"),
	}
}

// Stats summarises the mounted image.
type Stats struct {
	// MountedBytes is the filesystem's allocated size (Table II "Mounted
	// size"), in real (generated) bytes.
	MountedBytes int64
	// Files is the number of regular files (real scale).
	Files int
	// SerializedBytes is the qcow2-like on-disk size.
	SerializedBytes int64
}

// Stats mounts the image and reports its size characteristics.
func (im *Image) Stats() (Stats, error) {
	fs, err := im.Mount()
	if err != nil {
		return Stats{}, err
	}
	return Stats{
		MountedBytes:    fs.UsedBytes(),
		Files:           fs.NumFiles(),
		SerializedBytes: im.Disk.SerializedBytes(),
	}, nil
}
