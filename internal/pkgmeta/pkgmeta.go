// Package pkgmeta defines the package and base-image metadata model shared
// by the package manager, the binary package format, the synthetic catalog
// and the semantic graph: the attribute quadruples of Sec. III-C of the
// paper, plus the Debian-control-style text encoding used for status files
// and package control data.
package pkgmeta

import (
	"fmt"
	"strconv"
	"strings"
)

// ArchAll is the architecture value of portable packages; per Sec. III-C,
// "an architecture attribute of 'all' means that the package is portable
// and available on base images with any architecture".
const ArchAll = "all"

// BaseAttrs is the attribute quadruple of a base image:
// attrs(BI) = (type, distro, ver, arch).
type BaseAttrs struct {
	Type    string // guest OS type, e.g. "linux"
	Distro  string // distribution, e.g. "ubuntu"
	Version string // distribution version, e.g. "16.04"
	Arch    string // machine architecture, e.g. "x86_64"
}

// String renders the quadruple as "type/distro/version/arch".
func (a BaseAttrs) String() string {
	return a.Type + "/" + a.Distro + "/" + a.Version + "/" + a.Arch
}

// IsZero reports whether all attributes are empty.
func (a BaseAttrs) IsZero() bool { return a == BaseAttrs{} }

// Package describes one software package: the per-vertex attributes of the
// VMI semantic graph (Sec. III-C/III-E) plus the dependency edges.
type Package struct {
	// Name is the package attribute ("pkg" in the paper), e.g. "mariadb".
	Name string
	// Version is the package version.
	Version string
	// Arch is the package architecture, or ArchAll for portable packages.
	Arch string
	// Distro is the distribution the package was built for.
	Distro string
	// Section classifies the package (libs, database, web, ...).
	Section string
	// InstalledSize is the disk space the installed package consumes
	// (paper-scale bytes) — the "size" used by simsize in Sec. III-F.
	InstalledSize int64
	// Depends lists the names of directly required packages.
	Depends []string
	// Essential marks base-OS packages that are never auto-removed.
	Essential bool
}

// Ref identifies the package as "name=version/arch".
func (p Package) Ref() string {
	return p.Name + "=" + p.Version + "/" + p.Arch
}

// Clone returns a deep copy of the package.
func (p Package) Clone() Package {
	q := p
	q.Depends = append([]string(nil), p.Depends...)
	return q
}

// --- control stanza encoding ---

// FormatControl renders the package as a Debian-control-style stanza.
func FormatControl(p Package) string { return string(AppendControl(nil, p)) }

// AppendControl appends the stanza FormatControl renders to dst.
func AppendControl(dst []byte, p Package) []byte {
	dst = append(dst, "Package: "...)
	dst = append(dst, p.Name...)
	dst = append(dst, "\nVersion: "...)
	dst = append(dst, p.Version...)
	dst = append(dst, "\nArchitecture: "...)
	dst = append(dst, p.Arch...)
	dst = append(dst, "\nDistribution: "...)
	dst = append(dst, p.Distro...)
	dst = append(dst, '\n')
	if p.Section != "" {
		dst = append(dst, "Section: "...)
		dst = append(dst, p.Section...)
		dst = append(dst, '\n')
	}
	dst = append(dst, "Installed-Size: "...)
	dst = strconv.AppendInt(dst, p.InstalledSize, 10)
	dst = append(dst, '\n')
	if len(p.Depends) > 0 {
		dst = append(dst, "Depends: "...)
		for i, d := range p.Depends {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = append(dst, d...)
		}
		dst = append(dst, '\n')
	}
	if p.Essential {
		dst = append(dst, "Essential: yes\n"...)
	}
	return dst
}

// ParseControl parses a single control stanza. A line may be of any
// length: a Depends line lists every dependency of its package.
func ParseControl(s string) (Package, error) {
	var p Package
	for s != "" {
		var line string
		line, s, _ = strings.Cut(s, "\n")
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		key, value, ok := strings.Cut(line, ":")
		if !ok {
			return p, fmt.Errorf("pkgmeta: malformed control line %q", line)
		}
		value = strings.TrimSpace(value)
		switch key {
		case "Package":
			p.Name = value
		case "Version":
			p.Version = value
		case "Architecture":
			p.Arch = value
		case "Distribution":
			p.Distro = value
		case "Section":
			p.Section = value
		case "Installed-Size":
			n, err := strconv.ParseInt(value, 10, 64)
			if err != nil {
				return p, fmt.Errorf("pkgmeta: bad Installed-Size %q: %w", value, err)
			}
			p.InstalledSize = n
		case "Depends":
			for _, dep := range strings.Split(value, ",") {
				dep = strings.TrimSpace(dep)
				if dep != "" {
					p.Depends = append(p.Depends, dep)
				}
			}
		case "Essential":
			p.Essential = value == "yes"
		default:
			// Unknown fields are ignored for forward compatibility.
		}
	}
	if p.Name == "" {
		return p, fmt.Errorf("pkgmeta: control stanza missing Package field")
	}
	return p, nil
}

// ParseStatus parses a multi-stanza status file.
func ParseStatus(s string) ([]Package, error) {
	var out []Package
	for _, stanza := range strings.Split(s, "\n\n") {
		if strings.TrimSpace(stanza) == "" {
			continue
		}
		p, err := ParseControl(stanza)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}
