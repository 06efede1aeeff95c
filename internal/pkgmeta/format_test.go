package pkgmeta

import (
	"fmt"
	"strings"
)

// FormatControlFmt is FormatControl as it was written with fmt, kept
// verbatim as the reference for the bytes AppendControl writes. It is
// exported for the catalog comparison in package pkgmeta_test.
func FormatControlFmt(p Package) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Package: %s\n", p.Name)
	fmt.Fprintf(&b, "Version: %s\n", p.Version)
	fmt.Fprintf(&b, "Architecture: %s\n", p.Arch)
	fmt.Fprintf(&b, "Distribution: %s\n", p.Distro)
	if p.Section != "" {
		fmt.Fprintf(&b, "Section: %s\n", p.Section)
	}
	fmt.Fprintf(&b, "Installed-Size: %d\n", p.InstalledSize)
	if len(p.Depends) > 0 {
		fmt.Fprintf(&b, "Depends: %s\n", strings.Join(p.Depends, ", "))
	}
	if p.Essential {
		b.WriteString("Essential: yes\n")
	}
	return b.String()
}
