package guestfs

import (
	"testing"

	"expelliarmus/internal/catalog"
	"expelliarmus/internal/fstree"
	"expelliarmus/internal/pkgmeta"
	"expelliarmus/internal/simio"
	"expelliarmus/internal/vdisk"
)

func newDisk(t *testing.T) *vdisk.Disk {
	t.Helper()
	d := vdisk.New("guest", 8<<20, vdisk.DefaultClusterSize)
	fs, err := fstree.Format(d, 512)
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"/etc", "/var/log", "/var/lib/dpkg", "/home/user", "/usr/bin"} {
		if err := fs.MkdirAll(dir); err != nil {
			t.Fatal(err)
		}
	}
	fs.WriteFile("/etc/hostname", []byte("guest-vm"))
	fs.WriteFile("/etc/machine-id", []byte("abc123"))
	fs.WriteFile("/var/log/syslog", []byte("log line"))
	fs.WriteFile("/home/user/file", []byte("user data"))
	fs.WriteFile("/usr/bin/tool", []byte("binary"))
	return d
}

func testDevice() *simio.Device {
	return simio.NewDevice(simio.PaperProfile().Scaled(catalog.ByteScale, catalog.FileScale))
}

func TestLaunchAndAccess(t *testing.T) {
	meter := &simio.Meter{}
	h := New(newDisk(t), testDevice(), meter)
	if h.launched {
		t.Fatal("handle launched before Launch")
	}
	if _, err := h.FS(); err == nil {
		t.Fatal("FS accessible before launch")
	}
	if err := h.Launch(); err != nil {
		t.Fatal(err)
	}
	if !h.launched {
		t.Fatal("not launched after Launch")
	}
	if meter.Phase(simio.PhaseLaunch) == 0 {
		t.Fatal("launch cost not charged")
	}
	fs, err := h.FS()
	if err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile("/etc/hostname")
	if err != nil || string(data) != "guest-vm" {
		t.Fatalf("guest read: %q, %v", data, err)
	}
	if err := h.Launch(); err == nil {
		t.Fatal("double launch succeeded")
	}
}

func TestLaunchUnformattedDiskFails(t *testing.T) {
	d := vdisk.New("raw", 1<<20, vdisk.DefaultClusterSize)
	h := New(d, testDevice(), &simio.Meter{})
	if err := h.Launch(); err == nil {
		t.Fatal("launched handle on unformatted disk")
	}
}

func TestNilMeterIsSafe(t *testing.T) {
	h := New(newDisk(t), nil, nil)
	if err := h.Launch(); err != nil {
		t.Fatal(err)
	}
	if err := h.Sysprep(nil); err != nil {
		t.Fatal(err)
	}
}

func TestSysprepDefaults(t *testing.T) {
	meter := &simio.Meter{}
	h := New(newDisk(t), testDevice(), meter)
	if err := h.Launch(); err != nil {
		t.Fatal(err)
	}
	if err := h.Sysprep(nil); err != nil {
		t.Fatal(err)
	}
	fs, _ := h.FS()
	for _, gone := range []string{"/var/log/syslog", "/home/user/file", "/etc/machine-id", "/etc/hostname"} {
		if fs.Exists(gone) {
			t.Errorf("%s survived sysprep", gone)
		}
	}
	// Package database and binaries survive.
	if !fs.Exists("/var/lib/dpkg") {
		t.Error("package database wiped by sysprep")
	}
	if !fs.Exists("/usr/bin/tool") {
		t.Error("binaries wiped by sysprep")
	}
	if meter.Phase(simio.PhaseReset) == 0 {
		t.Error("reset cost not charged")
	}
}

func TestSysprepCustomPaths(t *testing.T) {
	h := New(newDisk(t), testDevice(), &simio.Meter{})
	h.Launch()
	if err := h.Sysprep([]string{"/usr/bin"}); err != nil {
		t.Fatal(err)
	}
	fs, _ := h.FS()
	if fs.Exists("/usr/bin/tool") {
		t.Error("custom sysprep path not removed")
	}
	if !fs.Exists("/var/log/syslog") {
		t.Error("custom sysprep removed default paths")
	}
}

func TestSysprepBeforeLaunchFails(t *testing.T) {
	h := New(newDisk(t), testDevice(), &simio.Meter{})
	if err := h.Sysprep(nil); err == nil {
		t.Fatal("sysprep before launch succeeded")
	}
}

func TestPackageManagerAccess(t *testing.T) {
	h := New(newDisk(t), testDevice(), &simio.Meter{})
	if _, err := h.PackageManager(); err == nil {
		t.Fatal("package manager before launch succeeded")
	}
	h.Launch()
	mgr, err := h.PackageManager()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := mgr.Installed()
	if err != nil || len(pkgs) != 0 {
		t.Fatalf("Installed = %v, %v", pkgs, err)
	}
}

// TestPackageManagerIsShared: a handle has one package manager — one
// index over the guest's status database — so an install through one
// accessor call is visible through the next, and Close retires it with
// the mount.
func TestPackageManagerIsShared(t *testing.T) {
	h := New(newDisk(t), testDevice(), &simio.Meter{})
	h.Launch()
	a, err := h.PackageManager()
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.PackageManager()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("two PackageManager calls returned two managers")
	}
	p := pkgmeta.Package{Name: "redis", Version: "1.0", Arch: "amd64", Distro: "ubuntu"}
	if err := a.InstallPackage(p, nil); err != nil {
		t.Fatal(err)
	}
	if !b.IsInstalled("redis") {
		t.Fatal("install through one accessor call is invisible through the other")
	}
	h.Close()
	h.Launch()
	c, err := h.PackageManager()
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("relaunched handle reuses the closed mount's manager")
	}
	if !c.IsInstalled("redis") {
		t.Fatal("relaunched handle lost the installed package")
	}
}

func TestClose(t *testing.T) {
	h := New(newDisk(t), testDevice(), &simio.Meter{})
	h.Launch()
	h.Close()
	if h.launched {
		t.Fatal("handle launched after Close")
	}
	if _, err := h.FS(); err == nil {
		t.Fatal("FS accessible after Close")
	}
	// Relaunch works.
	if err := h.Launch(); err != nil {
		t.Fatal(err)
	}
}

func TestDiskAccessor(t *testing.T) {
	d := newDisk(t)
	h := New(d, testDevice(), nil)
	if h.Disk() != d {
		t.Fatal("Disk() returned wrong disk")
	}
}
