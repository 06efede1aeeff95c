// Package guestfs provides a libguestfs-like access layer over virtual
// disks: a handle that must be launched before use (the paper's
// "configures and launches a guestfs handle", whose cost is a visible
// component of publish and retrieval times in Fig. 5a), filesystem access
// without booting the VMI, a package-manager accessor, and a
// virt-sysprep-style reset.
package guestfs

import (
	"fmt"

	"expelliarmus/internal/fstree"
	"expelliarmus/internal/pkgmgr"
	"expelliarmus/internal/simio"
	"expelliarmus/internal/vdisk"
)

// DefaultSysprepPaths are the guest paths cleared by a virt-sysprep style
// reset: instance-specific churn (logs, caches, spools, tmp) and user home
// directories. The package database under /var/lib/dpkg is preserved.
var DefaultSysprepPaths = []string{
	"/var/log", "/var/cache", "/var/spool", "/tmp",
	"/home", "/root", "/srv",
	"/etc/machine-id", "/etc/hostname",
}

// Handle is a guestfs handle bound to one disk. Operations other than
// Launch fail until the handle is launched. The handle charges its
// appliance-launch cost to the provided meter (both device and meter may be
// nil for uncosted use, e.g. in tests).
//
// A Handle itself belongs to one operation and is not safe for concurrent
// mutation, but the Device and Meter it charges are safe for concurrent
// use.
type Handle struct {
	disk     *vdisk.Disk
	dev      *simio.Device
	meter    *simio.Meter
	fs       *fstree.FS
	mgr      *pkgmgr.Manager // the guest's one package index, built on first use
	launched bool
}

// New returns an unlaunched handle for the disk.
func New(disk *vdisk.Disk, dev *simio.Device, meter *simio.Meter) *Handle {
	return &Handle{disk: disk, dev: dev, meter: meter}
}

// Launch boots the appliance and mounts the guest filesystem, charging
// simio.PhaseLaunch. Launching twice is an error.
func (h *Handle) Launch() error {
	if h.launched {
		return fmt.Errorf("guestfs: handle already launched")
	}
	if h.dev != nil && h.meter != nil {
		h.meter.Charge(simio.PhaseLaunch, h.dev.LaunchCost())
	}
	fs, err := fstree.Mount(h.disk)
	if err != nil {
		return fmt.Errorf("guestfs: mount: %w", err)
	}
	h.fs = fs
	h.launched = true
	return nil
}

// Disk returns the underlying disk.
func (h *Handle) Disk() *vdisk.Disk { return h.disk }

// FS returns the mounted guest filesystem.
func (h *Handle) FS() (*fstree.FS, error) {
	if !h.launched {
		return nil, fmt.Errorf("guestfs: handle not launched")
	}
	return h.fs, nil
}

// PackageManager returns the handle's package manager, the same one on
// every call: two indexes over one status database would drift apart. It
// is constructed on the first call, not by Launch, because constructing it
// creates missing database directories and when that happens places them.
func (h *Handle) PackageManager() (*pkgmgr.Manager, error) {
	fs, err := h.FS()
	if err != nil {
		return nil, err
	}
	if h.mgr == nil {
		mgr, err := pkgmgr.New(fs)
		if err != nil {
			return nil, err
		}
		h.mgr = mgr
	}
	return h.mgr, nil
}

// Sysprep resets the guest to a pristine state by removing the given paths
// (DefaultSysprepPaths if nil), charging simio.PhaseReset proportional to
// the filesystem's file count like virt-sysprep's full scan.
func (h *Handle) Sysprep(paths []string) error {
	fs, err := h.FS()
	if err != nil {
		return err
	}
	if paths == nil {
		paths = DefaultSysprepPaths
	}
	if h.dev != nil && h.meter != nil {
		h.meter.Charge(simio.PhaseReset, h.dev.ResetCost(fs.NumFiles()))
	}
	for _, p := range paths {
		if err := fs.RemoveAll(p); err != nil {
			return fmt.Errorf("guestfs: sysprep %s: %w", p, err)
		}
	}
	return nil
}

// Close shuts the handle down. Further operations require a new handle.
func (h *Handle) Close() {
	h.launched = false
	h.fs = nil
	h.mgr = nil
}
