package core

import (
	"errors"
	"testing"

	"expelliarmus/internal/master"
	"expelliarmus/internal/pkgfmt"
	"expelliarmus/internal/pkgmgr"
	"expelliarmus/internal/vmi"
)

// upgradeRedisInImage swaps the image's redis-server for a v2 build.
func upgradeRedisInImage(t *testing.T, img *vmi.Image) {
	t.Helper()
	fs, err := img.Mount()
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := pkgmgr.New(fs)
	if err != nil {
		t.Fatal(err)
	}
	v2, ok, err := mgr.Get("redis-server")
	if err != nil || !ok {
		t.Fatalf("redis-server not installed: %v", err)
	}
	v2.Version = "2.0-ubuntu2"
	if err := mgr.Remove("redis-server"); err != nil {
		t.Fatal(err)
	}
	if err := mgr.InstallPackage(v2, []pkgfmt.File{
		{Path: "/usr/bin/redis-server", Data: []byte("redis v2 binary")},
	}); err != nil {
		t.Fatal(err)
	}
}

// TestVersionConflictRejected: publishing a second VMI that carries a
// different version of an already-clustered primary on the same base must
// fail with ErrVersionConflict (the master-graph limitation documented at
// master.ErrVersionConflict).
func TestVersionConflictRejected(t *testing.T) {
	s, b := newSystem(t, Options{})
	if _, err := s.Publish(buildImage(t, b, "Redis")); err != nil {
		t.Fatal(err)
	}
	upgraded := buildImage(t, b, "Redis")
	upgraded.Name = "Redis-v2"
	upgradeRedisInImage(t, upgraded)

	_, err := s.Publish(upgraded)
	if err == nil {
		t.Fatal("conflicting publish succeeded")
	}
	var conflict *master.ErrVersionConflict
	if !errors.As(err, &conflict) {
		t.Fatalf("error = %v, want ErrVersionConflict", err)
	}
	if conflict.Pkg != "redis-server" {
		t.Fatalf("conflict on %q", conflict.Pkg)
	}
	// The failed publish must not have broken the existing VMI.
	if _, _, err := s.Retrieve("Redis"); err != nil {
		t.Fatalf("original Redis broken by failed publish: %v", err)
	}
}

// TestVersionUpgradeAfterRetirement: retiring the old VMI rebuilds the
// master graph and unblocks publishing the upgraded image; retrieval then
// installs the new version.
func TestVersionUpgradeAfterRetirement(t *testing.T) {
	s, b := newSystem(t, Options{})
	if _, err := s.Publish(buildImage(t, b, "Redis")); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("Redis"); err != nil {
		t.Fatal(err)
	}

	upgraded := buildImage(t, b, "Redis")
	upgraded.Name = "Redis-v2"
	upgradeRedisInImage(t, upgraded)
	rep, err := s.Publish(upgraded)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Exported) != 1 || rep.Exported[0] != "redis-server" {
		t.Fatalf("exported = %v", rep.Exported)
	}
	if !s.Repo().HasPackage("redis-server=2.0-ubuntu2/amd64", nil) {
		t.Fatal("v2 package not stored")
	}

	got, _, err := s.Retrieve("Redis-v2")
	if err != nil {
		t.Fatal(err)
	}
	fs, _ := got.Mount()
	mgr, _ := pkgmgr.New(fs)
	p, ok, _ := mgr.Get("redis-server")
	if !ok || p.Version != "2.0-ubuntu2" {
		t.Fatalf("retrieved version = %+v (ok=%v)", p, ok)
	}
	data, err := fs.ReadFile("/usr/bin/redis-server")
	if err != nil || string(data) != "redis v2 binary" {
		t.Fatalf("binary = %q, %v", data, err)
	}
}
