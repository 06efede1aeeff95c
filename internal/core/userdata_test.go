package core

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"expelliarmus/internal/simio"
	"expelliarmus/internal/vmi"
	"expelliarmus/internal/vmirepo"
)

// userData reads name's user-data archive, nil when none is stored.
func userData(t *testing.T, s *System, name string) []byte {
	t.Helper()
	_, rc, _, err := s.repo.OpenUserData(name, simio.PhaseImport, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rc == nil {
		return nil
	}
	defer rc.Close()
	data, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRepublishWithoutUserDataDropsArchive: republishing an image whose
// user-data roots are empty deletes the previous version's archive, so no
// later retrieval imports it.
func TestRepublishWithoutUserDataDropsArchive(t *testing.T) {
	s, b := newSystem(t, Options{})
	if _, err := s.Publish(buildImage(t, b, "Redis")); err != nil {
		t.Fatal(err)
	}
	if userData(t, s, "Redis") == nil {
		t.Fatal("fixture: Redis published no user data")
	}
	img := buildImage(t, b, "Redis")
	fs, err := img.Mount()
	if err != nil {
		t.Fatal(err)
	}
	for _, root := range vmi.UserDataRoots {
		if err := fs.RemoveAll(root); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Publish(img); err != nil {
		t.Fatal(err)
	}
	if ud := userData(t, s, "Redis"); ud != nil {
		t.Fatalf("after a republish without user data, %d bytes of user data remain; want none", len(ud))
	}
}

// TestQuotaRejectedRepublishKeepsUserData: a republish the tenant quota
// rejects leaves the live record's user-data archive as it was.
func TestQuotaRejectedRepublishKeepsUserData(t *testing.T) {
	s, b := newSystem(t, Options{TenantQuotas: map[string]int64{"t": 1}})
	if _, err := s.Publish(buildAs(t, b, "Redis", "Redis", "v1")); err != nil {
		t.Fatal(err)
	}
	before := userData(t, s, "Redis")
	_, err := s.PublishWith(buildAs(t, b, "Redis", "Redis", "v2"), PublishOpts{Tenant: "t"})
	if !errors.Is(err, vmirepo.ErrQuotaExceeded) {
		t.Fatalf("over-quota republish = %v, want ErrQuotaExceeded", err)
	}
	after := userData(t, s, "Redis")
	if !bytes.Equal(before, after) {
		t.Fatal("a rejected republish replaced the live record's user data")
	}
}
