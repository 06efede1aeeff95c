package catalog

import (
	"fmt"
	"path"
	"sort"

	"expelliarmus/internal/pkgfmt"
	"expelliarmus/internal/pkgmeta"
)

// PackageSpec is a universe entry: package metadata (sizes at paper scale)
// plus the paper-scale file count used to drive content generation.
type PackageSpec struct {
	pkgmeta.Package
	// FileCount is the paper-scale number of files the package installs.
	FileCount int
}

// Universe is the synthetic Ubuntu-like package catalog for one release.
// It implements pkgmgr.Universe.
type Universe struct {
	release Release
	specs   map[string]PackageSpec
	names   []string
}

// DefaultBase is the base-image attribute quadruple of every generated
// template: the Ubuntu 16.04 x86_64 guests of the paper's testbed.
var DefaultBase = pkgmeta.BaseAttrs{
	Type: "linux", Distro: "ubuntu", Version: "16.04", Arch: "x86_64",
}

const mb = int64(1e6)

// NewUniverse constructs the package universe of the paper's testbed
// release (Ubuntu 16.04): an essential base-OS set (including the paper's
// libc6/perl-base/dpkg dependency cycle) sized to the Mini image of
// Table II, plus the application stacks of the 19 evaluation images,
// calibrated against the paper's publish and retrieval times (Sec. VI-C,
// Figs. 4–5).
func NewUniverse() *Universe { return NewUniverseFor(ReleaseXenial) }

// NewUniverseFor constructs the same package structure for an arbitrary
// release: identical names and dependency graph, release-specific versions
// and therefore release-specific deterministic content.
func NewUniverseFor(rel Release) *Universe {
	u := &Universe{release: rel, specs: make(map[string]PackageSpec)}

	ess := func(name string, sizeMB int64, files int, deps ...string) {
		u.add(name, sizeMB, files, true, "base", deps...)
	}
	app := func(name string, sizeMB int64, files int, deps ...string) {
		u.add(name, sizeMB, files, false, "apps", deps...)
	}

	// --- essential base OS (~1.64 GB, ~67k files at paper scale) ---
	ess("libc6", 180, 3000, "perl-base", "dpkg") // cyclic, per Fig. 1a
	ess("perl-base", 120, 2200, "libc6")
	ess("dpkg", 60, 1500, "libc6")
	ess("bash", 30, 400, "libc6")
	ess("coreutils", 80, 900, "libc6")
	ess("ucf", 5, 120, "coreutils")
	ess("debconf", 8, 250, "perl-base")
	ess("gawk", 6, 150, "libc6")
	ess("systemd", 130, 3600, "libc6")
	ess("util-linux", 70, 1000, "libc6")
	ess("apt", 45, 700, "libc6", "dpkg")
	ess("openssl", 40, 450, "libc6")
	ess("ca-certificates", 3, 180, "openssl")
	ess("python3-minimal", 90, 2600, "libc6")
	ess("grub-pc", 25, 550, "libc6")
	ess("linux-image-generic", 200, 4800, "libc6")
	ess("initramfs-tools", 15, 350, "bash")
	ess("netbase", 2, 60, "libc6")
	ess("ifupdown", 4, 90, "netbase")
	ess("openssh-server", 12, 280, "openssl")
	ess("rsyslog", 9, 180, "libc6")
	ess("cron", 3, 80, "libc6")
	ess("tar", 6, 90, "libc6")
	ess("gzip", 4, 70, "libc6")
	ess("sed", 3, 60, "libc6")
	ess("grep", 4, 70, "libc6")
	ess("findutils", 5, 80, "libc6")
	ess("e2fsprogs", 10, 200, "util-linux")
	ess("mount", 5, 90, "util-linux")
	ess("login", 4, 110, "libc6")
	for i := 0; i < 18; i++ {
		ess(fmt.Sprintf("base-lib-%02d", i), 7, 2400, "libc6")
	}

	// --- application stacks (sizes calibrated to Table II) ---
	app("ssl-cert", 2, 40, "openssl")
	app("redis-server", 8, 200, "libc6")
	app("postgresql-9.5", 55, 1400, "libc6", "ssl-cert")
	app("python3-full", 12, 600, "python3-minimal")
	app("python-django", 14, 700, "python3-full")
	app("erlang-base", 22, 900, "libc6")
	app("rabbitmq-server", 16, 600, "erlang-base")
	app("libaprutil1", 4, 80, "libc6")
	app("apache2", 16, 500, "libaprutil1")
	app("libaio1", 1, 10, "libc6")
	app("mysql-server", 34, 700, "libaio1")
	app("php7", 16, 900, "libc6")
	app("couchdb", 62, 800, "erlang-base")
	app("java-common", 1, 20, "libc6")
	app("openjdk-8", 52, 1500, "java-common")
	app("cassandra", 18, 600, "openjdk-8")
	app("tomcat-libs", 90, 1100, "libc6")
	app("tomcat8", 18, 400, "openjdk-8", "tomcat-libs")
	app("libpq5", 12, 150, "libc6")
	app("php-pgsql", 8, 120, "php7", "libpq5")
	app("pgadmin", 80, 1500, "libpq5", "python3-full")
	app("nginx", 20, 350, "libc6")
	app("php-fpm", 13, 220, "php7")
	app("mongodb-org", 168, 500, "libc6")
	app("owncloud", 148, 8000, "apache2", "php7", "mysql-server")
	app("xorg", 45, 1200, "libc6")
	app("desktop-base", 10, 300, "xorg")
	app("libreoffice", 60, 2600, "desktop-base")
	app("thunderbird", 45, 900, "desktop-base")
	app("vsftpd", 3, 60, "libc6")
	app("nfs-kernel-server", 8, 150, "libc6")
	app("postfix", 15, 400, "libc6")
	app("dovecot", 12, 300, "libc6")
	for i := 0; i < 110; i++ {
		app(fmt.Sprintf("desktop-pkg-%03d", i), 1, 110, "desktop-base")
	}
	app("apache-solr", 125, 900, "openjdk-8")
	app("eclipse", 220, 3000, "openjdk-8")
	app("maven", 30, 400, "openjdk-8")
	app("jenkins", 113, 700, "openjdk-8")
	app("ruby-full", 70, 1800, "libc6")
	app("rails", 40, 1200, "ruby-full")
	app("redmine", 95, 2200, "rails", "mysql-server")
	app("elasticsearch", 140, 9000, "openjdk-8")
	app("logstash", 90, 8000, "openjdk-8")
	app("kibana", 80, 9000, "libc6")

	sort.Strings(u.names)
	return u
}

func (u *Universe) add(name string, sizeMB int64, files int, essential bool, section string, deps ...string) {
	if _, dup := u.specs[name]; dup {
		panic(fmt.Sprintf("catalog: duplicate package %q", name))
	}
	u.specs[name] = PackageSpec{
		Package: pkgmeta.Package{
			Name:          name,
			Version:       u.release.PkgVersion,
			Arch:          "amd64",
			Distro:        u.release.Base.Distro,
			Section:       section,
			InstalledSize: sizeMB * mb,
			Depends:       deps,
			Essential:     essential,
		},
		FileCount: files,
	}
	u.names = append(u.names, name)
}

// Release returns the universe's release.
func (u *Universe) Release() Release { return u.release }

// Lookup implements pkgmgr.Universe.
func (u *Universe) Lookup(name string) (pkgmeta.Package, bool) {
	s, ok := u.specs[name]
	return s.Package, ok
}

// Spec returns the full spec for a package.
func (u *Universe) Spec(name string) (PackageSpec, bool) {
	s, ok := u.specs[name]
	return s, ok
}

// Names returns all package names in sorted order.
func (u *Universe) Names() []string { return append([]string(nil), u.names...) }

// EssentialNames returns the names of the essential base-OS packages.
func (u *Universe) EssentialNames() []string {
	var out []string
	for _, n := range u.names {
		if u.specs[n].Essential {
			out = append(out, n)
		}
	}
	return out
}

// FilesFor generates the deterministic file contents of a package at real
// (generated) scale. The same name and version always produce identical
// bytes, which is what makes package payloads dedupable across images.
func (u *Universe) FilesFor(name string) ([]pkgfmt.File, error) {
	spec, ok := u.specs[name]
	if !ok {
		return nil, fmt.Errorf("catalog: unknown package %q", name)
	}
	seed := seedString(spec.Name + "=" + spec.Version)
	realBytes := Real(spec.InstalledSize)
	realCount := RealFiles(spec.FileCount)
	sizes := splitSizes(seed, realBytes, realCount)

	files := make([]pkgfmt.File, 0, realCount+2)
	for i, size := range sizes {
		var p string
		switch {
		case i == 0:
			p = path.Join("/usr/bin", spec.Name)
		case i%9 == 1:
			p = fmt.Sprintf("/usr/share/%s/doc-%04d.txt", spec.Name, i)
		default:
			p = fmt.Sprintf("/usr/lib/%s/obj-%04d.bin", spec.Name, i)
		}
		files = append(files, pkgfmt.File{
			Path: p,
			Data: GenContent(splitmix64(seed^uint64(i)), int(size)),
		})
	}
	// A small, always-present configuration file.
	files = append(files, pkgfmt.File{
		Path: fmt.Sprintf("/etc/%s.conf", spec.Name),
		Data: []byte(fmt.Sprintf("# configuration for %s %s\nenabled=true\n", spec.Name, spec.Version)),
	})
	return files, nil
}
