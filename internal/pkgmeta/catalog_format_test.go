package pkgmeta_test

import (
	"testing"

	"expelliarmus/internal/catalog"
	"expelliarmus/internal/pkgmeta"
)

// TestFormatControlMatchesFmtOnCatalog renders every package of every
// catalog release with FormatControl and with the fmt-based reference,
// and requires the same bytes.
func TestFormatControlMatchesFmtOnCatalog(t *testing.T) {
	for _, rel := range []catalog.Release{catalog.ReleaseXenial, catalog.ReleaseBionic, catalog.ReleaseStretch} {
		u := catalog.NewUniverseFor(rel)
		for _, name := range u.Names() {
			p, _ := u.Lookup(name)
			if got, want := pkgmeta.FormatControl(p), pkgmeta.FormatControlFmt(p); got != want {
				t.Fatalf("%s: FormatControl gives %q, fmt %q", p.Ref(), got, want)
			}
		}
	}
}
