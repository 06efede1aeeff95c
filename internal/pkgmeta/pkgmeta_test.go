package pkgmeta

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func samplePackage() Package {
	return Package{
		Name:          "mariadb",
		Version:       "10.1.2",
		Arch:          "amd64",
		Distro:        "ubuntu",
		Section:       "database",
		InstalledSize: 123456789,
		Depends:       []string{"libc6", "ucf"},
		Essential:     false,
	}
}

func TestControlRoundTrip(t *testing.T) {
	want := samplePackage()
	got, err := ParseControl(FormatControl(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
}

func TestControlEssentialAndNoDeps(t *testing.T) {
	want := Package{Name: "libc6", Version: "2.23", Arch: "amd64", Distro: "ubuntu",
		InstalledSize: 10, Essential: true}
	s := FormatControl(want)
	if !strings.Contains(s, "Essential: yes") {
		t.Fatalf("control missing Essential: %q", s)
	}
	got, err := ParseControl(s)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Essential || got.Depends != nil {
		t.Fatalf("got %+v", got)
	}
}

// TestControlRoundTripLongLine: a package whose Depends line is longer
// than any line buffer (9 000 dependencies, about 108 KB) parses back
// whole, the fields after that line included.
func TestControlRoundTripLongLine(t *testing.T) {
	want := samplePackage()
	want.Depends = nil
	for i := range 9000 {
		want.Depends = append(want.Depends, fmt.Sprintf("libdep%05d", i))
	}
	want.Essential = true
	s := FormatControl(want)
	if len(s) < 100_000 {
		t.Fatalf("setup: the stanza is only %d bytes", len(s))
	}
	got, err := ParseControl(s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip kept %d of %d Depends, Essential %v", len(got.Depends), len(want.Depends), got.Essential)
	}
}

func TestParseControlErrors(t *testing.T) {
	if _, err := ParseControl("no colon here"); err == nil {
		t.Fatal("accepted malformed line")
	}
	if _, err := ParseControl("Version: 1.0\n"); err == nil {
		t.Fatal("accepted stanza without Package")
	}
	if _, err := ParseControl("Package: x\nInstalled-Size: abc\n"); err == nil {
		t.Fatal("accepted bad Installed-Size")
	}
}

func TestParseControlIgnoresUnknownFields(t *testing.T) {
	p, err := ParseControl("Package: x\nMaintainer: someone\nInstalled-Size: 5\n")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "x" || p.InstalledSize != 5 {
		t.Fatalf("got %+v", p)
	}
}

// TestStatusRoundTripSorted: a status file as the package manager writes
// it, the packages' control stanzas sorted by name and separated by blank
// lines, parses back to the same packages in the same order.
func TestStatusRoundTripSorted(t *testing.T) {
	pkgs := []Package{
		{Name: "bash", Version: "4", Arch: "amd64", Distro: "u", InstalledSize: 2, Essential: true},
		{Name: "perl-base", Version: "5.22", Arch: "amd64", Distro: "u", InstalledSize: 3,
			Depends: []string{"libc6", "dpkg"}},
		{Name: "zsh", Version: "5", Arch: "amd64", Distro: "u", InstalledSize: 1},
	}
	stanzas := make([]string, len(pkgs))
	for i, p := range pkgs {
		stanzas[i] = FormatControl(p)
	}
	got, err := ParseStatus(strings.Join(stanzas, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d stanzas", len(got))
	}
	if got[0].Name != "bash" || got[1].Name != "perl-base" || got[2].Name != "zsh" {
		t.Fatalf("order = %s,%s,%s", got[0].Name, got[1].Name, got[2].Name)
	}
	if !reflect.DeepEqual(got[1].Depends, []string{"libc6", "dpkg"}) {
		t.Fatalf("depends = %v", got[1].Depends)
	}
}

func TestParseStatusEmpty(t *testing.T) {
	got, err := ParseStatus("")
	if err != nil || len(got) != 0 {
		t.Fatalf("ParseStatus(\"\") = %v, %v", got, err)
	}
}

func TestBaseAttrs(t *testing.T) {
	a := BaseAttrs{Type: "linux", Distro: "ubuntu", Version: "16.04", Arch: "x86_64"}
	if a.String() != "linux/ubuntu/16.04/x86_64" {
		t.Fatalf("String = %q", a.String())
	}
	if a.IsZero() {
		t.Fatal("non-zero attrs reported zero")
	}
	if !(BaseAttrs{}).IsZero() {
		t.Fatal("zero attrs not reported zero")
	}
	b := a
	if a != b {
		t.Fatal("equal attrs compare unequal")
	}
}

func TestRef(t *testing.T) {
	p := samplePackage()
	if got := p.Ref(); got != "mariadb=10.1.2/amd64" {
		t.Fatalf("Ref = %q", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := samplePackage()
	q := p.Clone()
	q.Depends[0] = "mutated"
	if p.Depends[0] != "libc6" {
		t.Fatal("Clone shares Depends slice")
	}
}

// TestQuickControlRoundTrip: control encoding round-trips arbitrary
// well-formed packages (fields restricted to token-safe characters).
func TestQuickControlRoundTrip(t *testing.T) {
	sanitize := func(s string) string {
		var b strings.Builder
		for _, r := range s {
			if r > ' ' && r != ':' && r != ',' && r < 127 {
				b.WriteRune(r)
			}
		}
		if b.Len() == 0 {
			return "x"
		}
		return b.String()
	}
	err := quick.Check(func(name, ver string, size uint32, deps []string, ess bool) bool {
		p := Package{
			Name:          sanitize(name),
			Version:       sanitize(ver),
			Arch:          "amd64",
			Distro:        "ubuntu",
			InstalledSize: int64(size),
			Essential:     ess,
		}
		for _, d := range deps {
			p.Depends = append(p.Depends, sanitize(d))
		}
		got, err := ParseControl(FormatControl(p))
		return err == nil && reflect.DeepEqual(got, p)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

// FuzzParseControl: parsing any text returns a package or an error, never
// a panic, and a package it returns formats to the stanza
// FormatControlFmt writes, which parses back to the same package. Control stanzas come from packages repacked out of
// uploaded guests.
func FuzzParseControl(f *testing.F) {
	f.Add(FormatControl(samplePackage()))
	f.Add("Package: x\r\nDepends: a,, b ,\nDepends: c\nEssential: yes\nInstalled-Size: +7\n")
	f.Add("Package: a:b\n\n  Section : s\nno colon")
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParseControl(s)
		if err != nil {
			return
		}
		stanza := FormatControl(p)
		if want := FormatControlFmt(p); stanza != want {
			t.Fatalf("%+v formats to %q, fmt to %q", p, stanza, want)
		}
		got, err := ParseControl(stanza)
		if err != nil {
			t.Fatalf("%+v formats to a stanza that does not parse: %v", p, err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, p)
		}
	})
}
