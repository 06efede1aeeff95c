package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"testing"
	"time"

	"expelliarmus/internal/catalog"
	"expelliarmus/internal/client"
	"expelliarmus/internal/core"
	"expelliarmus/internal/vmirepo"
	"expelliarmus/internal/wire"
)

// lifecycleDiskBound is the reclamation gate: after the TTL sweep and the
// vacuum, the repository's physical blob bytes must be within this
// multiple of the surviving live bytes — expiry plus vacuum really gave
// the dead images' bytes back to the disk, not just hid their names.
const lifecycleDiskBound = 1.1

// TestLifecycleScenario runs the image-lifecycle gate on the memory
// backend, then the quota-exceeded rejection over a real loopback
// connection.
func TestLifecycleScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("lifecycle scenario skipped in -short mode")
	}
	r := newTestRunner(t)
	lifecycleScenario(t, r)
	lifecycleWireQuota(t, r)
}

// TestLifecycleScenarioDisk pins the physical reclamation bound.
func TestLifecycleScenarioDisk(t *testing.T) {
	if testing.Short() {
		t.Skip("lifecycle disk scenario skipped in -short mode")
	}
	r := newTestRunner(t)
	r.Backend = "disk"
	lifecycleScenario(t, r)
}

// lifecycleScenario: each of two tenants publishes one keeper (no TTL)
// and two TTL'd images carrying unique user data (real garbage the
// repository must later give back), a publish to a one-byte-quota tenant
// is rejected at commit time (stranding pre-commit garbage), the TTL
// sweep expires every TTL'd image, and a vacuum reclaims the remains.
// Gates, in order: exactly the TTL'd images expire and answer
// ErrNotFound (not corruption); a second vacuum reclaims nothing while
// the first reclaimed the rejected publish; per-tenant accounting
// returns exactly to its keeper-only value; on the disk backend the
// physical footprint lands within lifecycleDiskBound of the surviving
// live bytes; every keeper streams byte-identically to its pre-expiry
// reference.
func lifecycleScenario(t *testing.T, r *Runner) {
	const tenants, expPerTenant, clock = 2, 2, int64(1000)
	tpls := catalog.Paper19()
	opts := core.Options{TenantQuotas: map[string]int64{"blocked": 1}}
	var sys *core.System
	if r.Backend == "disk" {
		// Small segments keep the footprint gate's granularity fine (as
		// in the churn scenario).
		sys = openDiskSystem(t, r, t.TempDir(), vmirepo.OpenOptions{
			WALCompactBytes:     r.WALCompactBytes,
			BlobMaxSegmentBytes: 256 << 10,
		}, opts)
	} else {
		var err error
		if sys, err = r.NewCoreSystem(opts); err != nil {
			t.Fatal(err)
		}
	}

	// Keepers first; their charges are the accounting baseline the sweep
	// must return each tenant to.
	type tenant struct {
		name, keeper string
		charge       int64
		sum          string
	}
	var ts []tenant
	for i := 0; i < tenants; i++ {
		tn := tenant{name: fmt.Sprintf("tenant-%02d", i+1), keeper: tpls[i].Name}
		img, err := r.WL.Image(tpls[i])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.PublishWith(img, core.PublishOpts{Tenant: tn.name}); err != nil {
			t.Fatalf("publish keeper %s: %v", tn.keeper, err)
		}
		if tn.charge = sys.TenantStats()[tn.name]; tn.charge <= 0 {
			t.Fatalf("keeper %s charged %d bytes to %s", tn.keeper, tn.charge, tn.name)
		}
		ts = append(ts, tn)
	}
	var doomed []string
	for i, tn := range ts {
		for j := 0; j < expPerTenant; j++ {
			img, err := r.WL.Builder().Build(catalog.Template{
				Name:          fmt.Sprintf("ttl-%02d-%d", i+1, j+1),
				UserDataBytes: 512 << 20, // paper scale; ~512 KiB generated
				UserDataFiles: 256,
				SeriesSeed:    0x11FE0100 + uint64(i*expPerTenant+j),
				InstanceSeed:  0x11FE0200 + uint64(i*expPerTenant+j),
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.PublishWith(img, core.PublishOpts{Tenant: tn.name, ExpiresAt: clock + int64(j+1)}); err != nil {
				t.Fatalf("publish %s: %v", img.Name, err)
			}
			doomed = append(doomed, img.Name)
		}
	}
	if sys.Repo().Persistent() {
		if _, err := sys.Sync(); err != nil {
			t.Fatalf("sync: %v", err)
		}
	}
	for i := range ts {
		_, ts[i].sum = streamSum(t, sys, ts[i].keeper)
	}

	rej, err := r.WL.Image(tpls[tenants])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.PublishWith(rej, core.PublishOpts{Tenant: "blocked"}); !errors.Is(err, vmirepo.ErrQuotaExceeded) {
		t.Fatalf("over-quota publish answered %v, want %v", err, vmirepo.ErrQuotaExceeded)
	}

	// The sweep. Every TTL lands at or before clock+expPerTenant.
	expired, err := sys.ExpireAt(clock + expPerTenant)
	if err != nil {
		t.Fatalf("expire: %v", err)
	}
	sort.Strings(expired)
	sort.Strings(doomed)
	if fmt.Sprint(expired) != fmt.Sprint(doomed) {
		t.Fatalf("expired %v, want %v", expired, doomed)
	}
	for _, name := range expired {
		if _, _, err := sys.Retrieve(name); !errors.Is(err, vmirepo.ErrNotFound) {
			t.Fatalf("expired %s answered %v, want %v", name, err, vmirepo.ErrNotFound)
		}
	}

	vac, err := sys.Vacuum()
	if err != nil {
		t.Fatalf("vacuum: %v", err)
	}
	if vac.PackagesRemoved == 0 || vac.BytesReclaimed <= 0 {
		t.Fatalf("vacuum reclaimed nothing from the rejected publish: %+v", vac)
	}
	vac2, err := sys.Vacuum()
	if err != nil {
		t.Fatalf("second vacuum: %v", err)
	}
	if vac2.PackagesRemoved != 0 || vac2.UserDataRemoved != 0 || vac2.MetaRemoved != 0 || vac2.BlobsReleased != 0 {
		t.Fatalf("vacuum did not converge: second pass reclaimed %+v", vac2)
	}

	for _, tn := range ts {
		if got := sys.TenantStats()[tn.name]; got != tn.charge {
			t.Fatalf("tenant %s charged %d after expiry, want keeper-only %d", tn.name, got, tn.charge)
		}
	}
	if st := sys.Repo().Stats(); r.Backend == "disk" {
		if got := ratio(st.BlobDiskBytes, st.TotalBytes); got <= 0 || got > lifecycleDiskBound {
			t.Fatalf("disk %d bytes is %.2fx live %d bytes, bound %.1fx", st.BlobDiskBytes, got, st.TotalBytes, lifecycleDiskBound)
		}
	}
	for _, tn := range ts {
		if _, sum := streamSum(t, sys, tn.keeper); sum != tn.sum {
			t.Fatalf("keeper %s changed across expiry+vacuum", tn.keeper)
		}
	}
}

// lifecycleWireQuota is the network leg: against a loopback expelserverd
// handler with a one-image quota for tenant "capped", the first publish
// charged to it succeeds and the second is rejected with the typed
// quota-exceeded error — the rejection must survive the HTTP round trip
// and leave the repository unchanged.
func lifecycleWireQuota(t *testing.T, r *Runner) {
	// Measure one image's charge on a throwaway system, then cap the
	// tenant at exactly that.
	tpls := catalog.Paper19()
	probe, err := r.WL.Image(tpls[0])
	if err != nil {
		t.Fatal(err)
	}
	psys := core.NewSystem(r.Dev, core.Options{})
	if _, err := psys.PublishWith(probe, core.PublishOpts{Tenant: "probe"}); err != nil {
		t.Fatalf("quota probe: %v", err)
	}
	quota := psys.TenantStats()["probe"]
	if quota <= 0 {
		t.Fatalf("quota probe charged %d bytes", quota)
	}

	qsys := core.NewSystem(r.Dev, core.Options{TenantQuotas: map[string]int64{"capped": quota}})
	cl := client.New("http://"+serveLoopback(t, qsys), client.Options{Timeout: time.Minute})
	defer cl.Close()
	publish := func(tpl catalog.Template) error {
		_, err := cl.Publish(context.Background(), func(w io.Writer) error {
			img, err := r.WL.Image(tpl)
			if err != nil {
				return err
			}
			return wire.WriteImageMeta(w, img, wire.PublishMeta{Tenant: "capped"})
		})
		return err
	}
	if err := publish(tpls[0]); err != nil {
		t.Fatalf("in-quota publish over the wire: %v", err)
	}
	if err := publish(tpls[1]); !errors.Is(err, vmirepo.ErrQuotaExceeded) {
		t.Fatalf("over-quota publish over the wire answered %v, want %v", err, vmirepo.ErrQuotaExceeded)
	}
	if got := qsys.TenantStats()["capped"]; got != quota {
		t.Fatalf("rejected publish changed capped tenant's charge: %d, want %d", got, quota)
	}
}
