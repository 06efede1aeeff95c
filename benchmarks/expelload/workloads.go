package main

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"expelliarmus/internal/core"
	"expelliarmus/internal/fstree"
	"expelliarmus/internal/vdisk"
	"expelliarmus/internal/vmi"
)

const (
	warmCacheBytes   = 256 << 20 // holds the whole catalog working set
	followerCache    = 16 << 20  // about half the catalog working set
	bulkPool         = 2         // bulk variants per client, alternated
	bulkReads        = 3         // retrievals per bulk publish
	publishRate      = 3         // replicated_mix open-loop publishes per second
	zipfS            = 1.1
	zipfRound        = 64 // reader ops per round: the Zipf mix, stratified
	zipfRounds       = 64 // distinct seed-shuffled rounds before the sequence repeats
	verifySampleSize = 2  // live variants per client whose content is read back after the window
)

// workload is one named traffic mix. See BENCHMARK.json for why each one
// exists; the README predicts which layer moves which metric on it.
type workload struct {
	name       string
	cacheBytes int64
	replicated bool
	bulk       bool   // works on its own bulk images, not the catalog
	headline   opKind // the operation op_p50_ms reports
	// generate builds the seed-derived inputs beyond the catalog. It is
	// input generation, outside set-up and outside every timed region.
	generate func(in *inputs, span time.Duration) error
	// populate is the workload's share of set-up on a fresh rig.
	populate func(rg *rig) error
	// client is load goroutine c's loop for one phase.
	client func(rg *rig, c int, rec *recorder, ph *phase)
	// live returns the images retrievable once the loops have stopped,
	// and the variants whose content finish reads back.
	live func(rg *rig) (published int64, check []*variant)
}

var workloads = []*workload{
	{name: "cold_catalog", headline: opRetrieve,
		generate: genNone, populate: populateCatalog, client: catalogClient, live: liveCatalog},
	{name: "warm_catalog", cacheBytes: warmCacheBytes, headline: opRetrieve,
		generate: genNone, populate: populateCatalog, client: catalogClient, live: liveCatalog},
	{name: "publish_churn", headline: opPublish,
		generate: genChurn, populate: populateChurn, client: churnClient, live: liveChurn},
	{name: "bulk_stream", bulk: true, headline: opRetrieve,
		generate: genBulk, populate: populateBulk, client: bulkClient, live: liveBulk},
	{name: "replicated_mix", cacheBytes: followerCache, replicated: true, headline: opFresh,
		generate: genReplicated, populate: populateCatalog, client: replicatedClient, live: liveReplicated},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// inputs is everything the schedule needs, generated from the seed before
// any set-up. The program under test sees only these.
type inputs struct {
	seed     int64
	scale    scale
	catalog  []*vmi.Image
	names    []string     // catalog names in Table II order (the fixed Zipf ranking)
	perm     [][]string   // per client: seed-shuffled catalog order
	variants [][]*variant // per client
	resident *variant     // bulk_stream: stays published throughout
	ranks    []int        // replicated_mix reader: Zipf-mixed rounds of indices into names

	// What the traced run's probes work on: the heaviest image the store
	// holds (most primaries: Desktop with 121; bulk_stream: the resident)
	// and a few variants of it to publish.
	probe    *vmi.Image
	heaviest string
	probes   []*variant
}

func newInputs(seed int64, sc scale, catalog []*vmi.Image) *inputs {
	in := &inputs{seed: seed, scale: sc, catalog: catalog}
	for _, img := range catalog {
		in.names = append(in.names, img.Name)
	}
	for c := 0; c < loadClients; c++ {
		in.perm = append(in.perm, shuffled(in.names, subRand(seed, c)))
	}
	return in
}

func (in *inputs) catalogBytes() int64 {
	var n int64
	for _, img := range in.catalog {
		n += img.Disk.SerializedBytes()
	}
	return n
}

func genNone(in *inputs, _ time.Duration) error { return in.genCatalogProbes() }

func (in *inputs) genCatalogProbes() error {
	in.probe = in.catalog[0]
	for _, img := range in.catalog {
		if len(img.Primaries) > len(in.probe.Primaries) {
			in.probe = img
		}
	}
	in.heaviest = in.probe.Name
	r := subRand(in.seed, 30)
	for j := 0; j < probeReps; j++ {
		v, err := catalogVariant(in.probe, fmt.Sprintf("probe-%d", j), r.Uint64())
		if err != nil {
			return err
		}
		in.probes = append(in.probes, v)
	}
	return nil
}

// genChurn builds each client's variant pool: one clone of every catalog
// image in seed-shuffled order, each with its own 64 KiB of seed-derived
// user data. Every seed churns the same mix of image sizes; only order and
// content move. One pass of the pool is one round.
func genChurn(in *inputs, _ time.Duration) error {
	if err := in.genCatalogProbes(); err != nil {
		return err
	}
	return in.genCatalogVariants(len(in.catalog))
}

// churnLag is how many ops after its publish a variant is removed: one
// less than the pool, so the live set is steady and a name is free again
// just before the pool comes round to it.
func (in *inputs) churnLag() int { return len(in.catalog) - 1 }

// genReplicated builds one unique variant per open-loop publish (with
// slack for the reader finishing its last round), and the reader's rounds.
func genReplicated(in *inputs, span time.Duration) error {
	in.ranks = zipfRoundsOf(subRand(in.seed, 100), zipfS, len(in.names), zipfRound, zipfRounds)
	n := int((span+5*time.Second)/publishInterval) + 2
	if err := in.genCatalogProbes(); err != nil {
		return err
	}
	// Every publish is a variant of the same image — the catalog's median
	// by size — so the few dozen freshness samples of a run are one
	// population, not a small draw from nineteen.
	bySize := append([]*vmi.Image(nil), in.catalog...)
	sort.SliceStable(bySize, func(i, j int) bool {
		return bySize[i].Disk.SerializedBytes() < bySize[j].Disk.SerializedBytes()
	})
	parent := bySize[len(bySize)/2]
	r := subRand(in.seed, 10)
	in.variants = make([][]*variant, loadClients)
	for j := 0; j < n; j++ {
		v, err := catalogVariant(parent, fmt.Sprintf("v0-%03d-%s", j, parent.Name), r.Uint64())
		if err != nil {
			return err
		}
		in.variants[0] = append(in.variants[0], v)
	}
	return nil
}

// genCatalogVariants gives every client n variants. Parents cycle through
// a seed-shuffled order of the catalog, so any len(catalog) consecutive
// variants cover every image once.
func (in *inputs) genCatalogVariants(n int) error {
	in.variants = make([][]*variant, loadClients)
	for c := 0; c < loadClients; c++ {
		r := subRand(in.seed, 10+c)
		order := r.Perm(len(in.catalog))
		for j := 0; j < n; j++ {
			parent := in.catalog[order[j%len(order)]]
			v, err := catalogVariant(parent, fmt.Sprintf("v%d-%03d-%s", c, j, parent.Name), r.Uint64())
			if err != nil {
				return err
			}
			in.variants[c] = append(in.variants[c], v)
		}
	}
	return nil
}

func genBulk(in *inputs, _ time.Duration) error {
	r := subRand(in.seed, 20)
	parent, err := buildBulkParent(r.Uint64(), in.scale.bulkPayload)
	if err != nil {
		return err
	}
	if in.resident, err = bulkVariant(parent, "bulk-resident", 0, r.Uint64()); err != nil {
		return err
	}
	in.probe, in.heaviest = in.resident.img, in.resident.img.Name
	in.variants = make([][]*variant, loadClients)
	idx := 1
	for c := 0; c < loadClients; c++ {
		for j := 0; j < bulkPool; j++ {
			v, err := bulkVariant(parent, fmt.Sprintf("bulk-%d-%d", c, j), idx, r.Uint64())
			if err != nil {
				return err
			}
			in.variants[c] = append(in.variants[c], v)
			idx++
		}
	}
	for j := 0; j < probeReps; j++ {
		v, err := bulkVariant(parent, fmt.Sprintf("bulk-probe-%d", j), idx, r.Uint64())
		if err != nil {
			return err
		}
		in.probes = append(in.probes, v)
		idx++
	}
	return nil
}

// rungs of the layer ladder.
const (
	rungHTTP = iota // L0: client.* over loopback HTTP — the end-to-end path
	rungDisk        // L1: direct core.System calls on the disk store
	rungMem         // L2: the same on the in-memory backend
)

var rungNames = [...]string{"L0", "L1", "L2"}

// rig is one rung's system under test, brought up fresh and populated by
// the workload's set-up.
type rig struct {
	w        *workload
	in       *inputs
	rung     int
	writer   *node
	follower *node    // replicated_mix on L0/L1
	wt, rt   []target // per client: where writes and reads go
	refs     map[string]*fingerprint
	// varRefs[c] holds client c's variants' first-retrieval fingerprints;
	// only client c touches it.
	varRefs []map[string]*fingerprint
	// next[c] is the first schedule index client c's loop runs (set-up
	// may have consumed some).
	next []int
}

// bringUp starts the nodes and runs the workload's populate: one whole
// set-up cycle.
func bringUp(w *workload, in *inputs, rung int, storeRoot string) (*rig, error) {
	rg := &rig{w: w, in: in, rung: rung, next: make([]int, loadClients)}
	for c := 0; c < loadClients; c++ {
		rg.varRefs = append(rg.varRefs, map[string]*fingerprint{})
	}
	disk := rung != rungMem
	// L1 of replicated_mix still needs the writer's HTTP front: the
	// follower tails it.
	follow := w.replicated && disk
	cache := w.cacheBytes
	if follow {
		cache = 0 // the cache under test is the follower's
	}
	var err error
	if rg.writer, err = startWriter(storeRoot, disk, cache, rung == rungHTTP || follow); err != nil {
		return nil, err
	}
	if follow {
		if rg.follower, err = startFollower(rg.writer.addr, w.cacheBytes, rung == rungHTTP); err != nil {
			rg.close()
			return nil, err
		}
	}
	// Without a follower reads go where writes go, over the same connection.
	rg.wt = rg.targetsFor(rg.writer, disk)
	rg.rt = rg.wt
	if rg.follower != nil {
		rg.rt = rg.targetsFor(rg.follower, false)
	}
	if err := w.populate(rg); err != nil {
		rg.close()
		return nil, fmt.Errorf("%s set-up (%s): %w", w.name, rungNames[rung], err)
	}
	return rg, nil
}

// targetsFor returns one target per load client for node n on rg's rung.
func (rg *rig) targetsFor(n *node, durable bool) []target {
	ts := make([]target, loadClients)
	for c := range ts {
		if rg.rung == rungHTTP {
			ts[c] = newHTTPTarget(n.addr)
		} else {
			ts[c] = &coreTarget{sys: n.sys, durable: durable}
		}
	}
	return ts
}

func (rg *rig) close() error {
	for _, ts := range [][]target{rg.wt, rg.rt} {
		for _, t := range ts {
			if ht, ok := t.(*httpTarget); ok {
				ht.close()
			}
		}
	}
	var first error
	if rg.follower != nil {
		first = rg.follower.close()
	}
	if rg.writer != nil {
		if err := rg.writer.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// readSys is the system reads are served by.
func (rg *rig) readSys() *core.System {
	if rg.follower != nil {
		return rg.follower.sys
	}
	return rg.writer.sys
}

// catchUp converges the follower to the writer's durable position.
func (rg *rig) catchUp() error {
	if rg.follower == nil {
		return nil
	}
	return rg.follower.rep.CatchUp(context.Background())
}

// publishSet publishes imgs through the first write target and syncs.
func (rg *rig) publishSet(imgs []*vmi.Image) error {
	t := rg.wt[0]
	for _, img := range imgs {
		if _, err := t.publish(t.prepare(img)); err != nil {
			return fmt.Errorf("publish %s: %w", img.Name, err)
		}
	}
	return t.sync()
}

// takeReferences computes each named image's reference fingerprint from an
// in-process RetrieveTo on sys, loadClients at a time. On a cached system
// this is also what pre-warms the cache.
func takeReferences(sys *core.System, names []string) (map[string]*fingerprint, error) {
	refs := make(map[string]*fingerprint, len(names))
	var mu sync.Mutex
	var first error
	var wg sync.WaitGroup
	for c := 0; c < loadClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(names); i += loadClients {
				var sink fpWriter
				_, _, err := sys.RetrieveTo(&sink, names[i])
				if err == nil {
					err = checkFingerprint(sink.fp, nil)
				}
				mu.Lock()
				if err != nil && first == nil {
					first = fmt.Errorf("reference %s: %w", names[i], err)
				}
				fp := sink.fp
				refs[names[i]] = &fp
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return refs, first
}

// populateCatalog publishes the 19 Table II images and takes their
// references in-process from the system that will serve the reads.
func populateCatalog(rg *rig) error {
	if err := rg.publishSet(rg.in.catalog); err != nil {
		return err
	}
	if err := rg.catchUp(); err != nil {
		return err
	}
	var err error
	rg.refs, err = takeReferences(rg.readSys(), rg.in.names)
	return err
}

// catalogClient cycles its seed-shuffled order of the catalog, closed loop.
func catalogClient(rg *rig, c int, rec *recorder, ph *phase) {
	perm := rg.in.perm[c]
	for i := 0; rec.tick(ph, len(perm)); i++ {
		name := perm[i%len(perm)]
		rec.retrieve(rg.rt[c], i*loadClients+c, name, rg.refs[name])
	}
}

func liveCatalog(rg *rig) (int64, []*variant) { return rg.in.catalogBytes(), nil }

// populateChurn publishes the catalog, then each client publishes its
// first churnLag variants, so the timed loop starts in steady state: every
// op publishes one variant and removes the one from churnLag ops ago.
func populateChurn(rg *rig) error {
	if err := rg.publishSet(rg.in.catalog); err != nil {
		return err
	}
	errs := make([]error, loadClients)
	var wg sync.WaitGroup
	for c := 0; c < loadClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t, lag := rg.wt[c], rg.in.churnLag()
			for i := 0; i < lag && errs[c] == nil; i++ {
				v := rg.in.variants[c][i]
				if _, err := t.publish(t.prepare(v.img)); err != nil {
					errs[c] = fmt.Errorf("publish %s: %w", v.img.Name, err)
				} else {
					errs[c] = t.sync()
				}
			}
			rg.next[c] = lag
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func churnClient(rg *rig, c int, rec *recorder, ph *phase) {
	t, vs, lag := rg.wt[c], rg.in.variants[c], rg.in.churnLag()
	i := rg.next[c]
	for ; rec.tick(ph, len(vs)); i++ {
		v := vs[i%len(vs)]
		img := t.prepare(v.img)
		rec.publish(t, i*loadClients+c, img, v.bytes, false, time.Time{})
		rec.remove(t, i*loadClients+c, vs[(i-lag)%len(vs)].img.Name)
	}
	rg.next[c] = i
}

func liveChurn(rg *rig) (int64, []*variant) {
	published := rg.in.catalogBytes()
	var check []*variant
	for c := 0; c < loadClients; c++ {
		vs, end := rg.in.variants[c], rg.next[c]
		for i := end - rg.in.churnLag(); i < end; i++ {
			published += vs[i%len(vs)].bytes
			if i >= end-verifySampleSize {
				check = append(check, vs[i%len(vs)])
			}
		}
	}
	return published, check
}

// populateBulk publishes the resident bulk image and takes its reference.
func populateBulk(rg *rig) error {
	res := rg.in.resident
	if err := rg.publishSet([]*vmi.Image{res.img}); err != nil {
		return err
	}
	var err error
	rg.refs, err = takeReferences(rg.readSys(), []string{res.img.Name})
	return err
}

// bulkClient loops publish+Sync → bulkReads retrievals → remove+Sync over
// its own bulk variants. The loop only stops between cycles, so when it
// ends the resident image is the only one live.
func bulkClient(rg *rig, c int, rec *recorder, ph *phase) {
	t, vs, refs := rg.wt[c], rg.in.variants[c], rg.varRefs[c]
	cyc := rg.next[c]
	defer func() { rg.next[c] = cyc }()
	for ; rec.tick(ph, bulkPool); cyc++ {
		v := vs[cyc%bulkPool]
		op := cyc*loadClients + c
		img := t.prepare(v.img)
		rec.publish(t, op, img, v.bytes, true, time.Time{})
		for k := 0; k < bulkReads; k++ {
			fp := rec.retrieve(rg.rt[c], op, v.img.Name, refs[v.img.Name])
			if refs[v.img.Name] == nil {
				refs[v.img.Name] = &fp
			}
		}
		rec.remove(t, op, v.img.Name)
	}
}

func liveBulk(rg *rig) (int64, []*variant) {
	return rg.in.resident.bytes, []*variant{rg.in.resident}
}

// replicatedClient: goroutine 0 is the open-loop publisher, goroutine 1
// the closed-loop Zipf reader of the follower.
func replicatedClient(rg *rig, c int, rec *recorder, ph *phase) {
	if c != 0 {
		for i := 0; rec.tick(ph, zipfRound); i++ {
			name := rg.in.names[rg.in.ranks[i%len(rg.in.ranks)]]
			rec.retrieve(rg.rt[c], i*loadClients+c, name, rg.refs[name])
		}
		return
	}
	vs := rg.in.variants[0]
	p := pacer{start: time.Now(), interval: publishInterval}
	first := rg.next[0]
	i := first
	for ; i < len(vs); i++ {
		v := vs[i]
		op := i * loadClients
		img := rg.wt[0].prepare(v.img)
		due, late := p.wait(i-first, time.Now, func(d time.Duration) {
			select {
			case <-ph.closedDone:
			case <-time.After(d):
			}
		})
		select {
		case <-ph.closedDone:
			rg.next[0] = i
			return
		default:
		}
		rec.late = append(rec.late, late)
		ack := rec.publish(rg.wt[0], op, img, v.bytes, false, due)
		rec.fresh(rg, op, v, ack)
	}
	rg.next[0] = i
}

// fresh times writer Sync ack → the new image retrieved and verified from
// the follower: CatchUp, then the first read there.
func (r *recorder) fresh(rg *rig, op int, v *variant, ack time.Time) {
	tr := r.begin(opFresh, op)
	err := tr.call("replica.CatchUp", rg.catchUp)
	var sink fpWriter
	if err == nil {
		t := rg.rt[0]
		err = tr.call(t.layer()+".Retrieve", func() error { return t.retrieve(v.img.Name, &sink) })
	}
	end := time.Now()
	if err == nil {
		err = checkFingerprint(sink.fp, nil)
	}
	tr.end(opFresh, ack, end, v.img.Name, sink.fp.n, err)
}

func liveReplicated(rg *rig) (int64, []*variant) {
	published := rg.in.catalogBytes()
	vs := rg.in.variants[0][:rg.next[0]]
	for _, v := range vs {
		published += v.bytes
	}
	if len(vs) > verifySampleSize {
		vs = vs[len(vs)-verifySampleSize:]
	}
	return published, vs
}

// readBack retrieves v through t and checks that the content that made it
// unique came back verbatim at its path.
func readBack(t target, v *variant) error {
	var buf bytes.Buffer
	if err := t.retrieve(v.img.Name, &buf); err != nil {
		return fmt.Errorf("read back %s: %w", v.img.Name, err)
	}
	disk, err := vdisk.Deserialize(v.img.Name, buf.Bytes())
	if err != nil {
		return fmt.Errorf("read back %s: %w", v.img.Name, err)
	}
	fs, err := fstree.Mount(disk)
	if err != nil {
		return fmt.Errorf("read back %s: %w", v.img.Name, err)
	}
	got, err := fs.ReadFile(v.dataPath)
	if err != nil {
		return fmt.Errorf("read back %s: %w", v.img.Name, err)
	}
	if !bytes.Equal(got, v.data) {
		return fmt.Errorf("read back %s: %s differs from what was published", v.img.Name, v.dataPath)
	}
	return nil
}

const publishInterval = time.Second / publishRate
