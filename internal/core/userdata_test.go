package core

import (
	"bytes"
	"errors"
	"testing"

	"expelliarmus/internal/simio"
	"expelliarmus/internal/vmi"
	"expelliarmus/internal/vmirepo"
)

// TestRepublishWithoutUserDataDropsArchive: republishing an image whose
// user-data roots are empty deletes the previous version's archive, so no
// later retrieval imports it.
func TestRepublishWithoutUserDataDropsArchive(t *testing.T) {
	s, b := newSystem(t, Options{})
	if _, err := s.Publish(buildImage(t, b, "Redis")); err != nil {
		t.Fatal(err)
	}
	if ud, err := s.repo.GetUserData("Redis", simio.PhaseImport, nil); err != nil || ud == nil {
		t.Fatalf("fixture: Redis published %d bytes of user data, %v", len(ud), err)
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
	if ud, err := s.repo.GetUserData("Redis", simio.PhaseImport, nil); err != nil || ud != nil {
		t.Fatalf("after a republish without user data, GetUserData = %d bytes, %v; want none", len(ud), err)
	}
}

// TestQuotaRejectedRepublishKeepsUserData: a republish the tenant quota
// rejects leaves the live record's user-data archive as it was.
func TestQuotaRejectedRepublishKeepsUserData(t *testing.T) {
	s, b := newSystem(t, Options{TenantQuotas: map[string]int64{"t": 1}})
	if _, err := s.Publish(buildAs(t, b, "Redis", "Redis", "v1")); err != nil {
		t.Fatal(err)
	}
	before, err := s.repo.GetUserData("Redis", simio.PhaseImport, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.PublishWith(buildAs(t, b, "Redis", "Redis", "v2"), PublishOpts{Tenant: "t"})
	if !errors.Is(err, vmirepo.ErrQuotaExceeded) {
		t.Fatalf("over-quota republish = %v, want ErrQuotaExceeded", err)
	}
	after, err := s.repo.GetUserData("Redis", simio.PhaseImport, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("a rejected republish replaced the live record's user data")
	}
}
