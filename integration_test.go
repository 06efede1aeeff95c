package expelliarmus

// Integration tests exercising the whole stack through the public facade:
// catalog → builder → guestfs → package manager → semantic graphs →
// repository → assembler, across multiple images and both retrieval paths.

import (
	"fmt"
	"testing"
)

// TestIntegrationLifecycle publishes a representative slice of the
// evaluation set, verifies repository invariants after each step, and
// retrieves every image back, checking functional equivalence.
func TestIntegrationLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test skipped in -short mode")
	}
	sys := New()
	names := []string{"Mini", "Redis", "PostgreSql", "Base", "Lemp", "Cassandra"}
	binaries := map[string][]string{
		"Mini":       nil,
		"Redis":      {"/usr/bin/redis-server"},
		"PostgreSql": {"/usr/bin/postgresql-9.5"},
		"Base":       {"/usr/bin/apache2", "/usr/bin/mysql-server", "/usr/bin/php7"},
		"Lemp":       {"/usr/bin/nginx", "/usr/bin/mysql-server", "/usr/bin/php-fpm"},
		"Cassandra":  {"/usr/bin/cassandra", "/usr/bin/openjdk-8"},
	}

	var prevSize float64
	for i, name := range names {
		img, err := sys.BuildImage(name)
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		pub, err := sys.Publish(img)
		if err != nil {
			t.Fatalf("publish %s: %v", name, err)
		}
		st := sys.RepoStats()
		// One base image, ever.
		if st.BaseImages != 1 {
			t.Fatalf("after %s: %d base images", name, st.BaseImages)
		}
		if st.VMIs != i+1 {
			t.Fatalf("after %s: %d VMIs", name, st.VMIs)
		}
		// Size grows monotonically but by far less than a full image.
		if st.TotalGB < prevSize {
			t.Fatalf("repo shrank after %s", name)
		}
		if i > 0 && st.TotalGB-prevSize > 0.5 {
			t.Fatalf("repo grew %.2f GB for %s, dedup failed", st.TotalGB-prevSize, name)
		}
		prevSize = st.TotalGB
		// First image stores the base, later ones never do.
		if (i == 0) != pub.BaseStored {
			t.Fatalf("%s: BaseStored = %v at position %d", name, pub.BaseStored, i)
		}
	}

	// Everything retrieves; every expected binary is present.
	for _, name := range names {
		img, ret, err := sys.Retrieve(name)
		if err != nil {
			t.Fatalf("retrieve %s: %v", name, err)
		}
		for _, bin := range binaries[name] {
			if !img.HasFile(bin) {
				t.Errorf("%s: missing %s after retrieval", name, bin)
			}
		}
		if ret.Seconds <= 0 {
			t.Errorf("%s: zero retrieval time", name)
		}
	}

	// Cross-image assembly of never-uploaded combinations.
	combo, _, err := sys.Assemble("pg-cache", []string{"postgresql-9.5", "redis-server"}, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, bin := range []string{"/usr/bin/postgresql-9.5", "/usr/bin/redis-server"} {
		if !combo.HasFile(bin) {
			t.Errorf("assembly missing %s", bin)
		}
	}
}

// TestIntegrationDeterminism: two independent systems fed the same uploads
// converge to byte-identical repository sizes and identical reports.
func TestIntegrationDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test skipped in -short mode")
	}
	run := func() (float64, string) {
		sys := New()
		var trace string
		for _, name := range []string{"Mini", "Redis", "Base"} {
			img, err := sys.BuildImage(name)
			if err != nil {
				t.Fatal(err)
			}
			pub, err := sys.Publish(img)
			if err != nil {
				t.Fatal(err)
			}
			trace += fmt.Sprintf("%s:%.4f:%d:%.3f;", name, pub.Similarity, len(pub.Exported), pub.Seconds)
		}
		return sys.RepoStats().TotalGB, trace
	}
	size1, trace1 := run()
	size2, trace2 := run()
	if size1 != size2 {
		t.Fatalf("repo sizes differ across runs: %v vs %v", size1, size2)
	}
	if trace1 != trace2 {
		t.Fatalf("publish traces differ:\n%s\n%s", trace1, trace2)
	}
}

// TestIntegrationChurnDiscarded verifies the semantic advantage directly:
// two successive builds of the same template differ only in churn, and the
// second publish adds almost nothing to the repository.
func TestIntegrationChurnDiscarded(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test skipped in -short mode")
	}
	sys := New()
	builds, err := sys.BuildIDESeries(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Publish(builds[0]); err != nil {
		t.Fatal(err)
	}
	size1 := sys.RepoStats().TotalGB
	if _, err := sys.Publish(builds[1]); err != nil {
		t.Fatal(err)
	}
	size2 := sys.RepoStats().TotalGB
	// The second build's ~105 paper-MB of unique churn must NOT land in
	// the repository; only metadata noise may.
	if growth := size2 - size1; growth > 0.02 {
		t.Fatalf("second identical-package build grew repo by %.3f GB", growth)
	}
}
