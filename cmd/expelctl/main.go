// Command expelctl drives an Expelliarmus session from the command line:
// it builds synthetic evaluation images, publishes them into a repository,
// retrieves or assembles VMIs and reports repository statistics — the
// Fig. 2 workflow end to end.
//
// The repository is in-process by default. With -server ADDR every
// operation instead runs against a live expelserverd: images are built
// locally, streamed up as wire envelopes, and retrievals stream back as
// verified byte streams. Repository-side options (-no-dedup,
// -no-base-selection, -load) belong to whoever owns the repository and
// are rejected in remote mode. Either way the subcommands run through one
// loop over the repository interface below, so local and remote sessions
// print the same lines.
//
// Usage:
//
//	expelctl -publish Mini,Redis,Base [-retrieve Redis] [-assemble combo=redis-server+apache2] [-v]
//	expelctl -server 127.0.0.1:9747 -publish Redis -retrieve Redis
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"expelliarmus"
	"expelliarmus/internal/catalog"
	"expelliarmus/internal/wire"
)

// repository is what a session drives: the in-process System (local) or
// a live expelserverd through the HTTP client (remote).
type repository interface {
	publish(img *expelliarmus.Image, opts expelliarmus.PublishOptions) (*expelliarmus.PublishResult, error)
	// retrieve and assemble also report the image bytes verified off the
	// wire — zero in process, where no stream is involved.
	retrieve(name string) (int64, *expelliarmus.RetrieveResult, error)
	assemble(name string, primaries []string) (int64, *expelliarmus.RetrieveResult, error)
	remove(name string) error
	// sync and compact return errMemoryBacked when nothing is on disk.
	sync() (*expelliarmus.SyncStats, error)
	compact() (*expelliarmus.SyncStats, error)
	vacuum() (*expelliarmus.VacuumStats, error)
	stats() (repoStats, error)
	dot() (string, error)
	snapshot(w io.Writer) error
}

// repoStats is one stats report: the catalog and its footprint, the
// per-tenant charges, and — from a daemon that ships or follows a WAL —
// the replication state.
type repoStats struct {
	expelliarmus.RepoStats
	Tenants map[string]int64
	Repl    *wire.ReplicationStats
}

var errMemoryBacked = errors.New("repository is memory-backed")

// local adapts the in-process System.
type local struct{ *expelliarmus.System }

func (l local) publish(img *expelliarmus.Image, opts expelliarmus.PublishOptions) (*expelliarmus.PublishResult, error) {
	return l.PublishWith(img, opts)
}

func (l local) retrieve(name string) (int64, *expelliarmus.RetrieveResult, error) {
	_, ret, err := l.Retrieve(name)
	return 0, ret, err
}

func (l local) assemble(name string, primaries []string) (int64, *expelliarmus.RetrieveResult, error) {
	_, ret, err := l.Assemble(name, primaries, "")
	return 0, ret, err
}

func (l local) remove(name string) error { return l.Remove(name) }

func (l local) sync() (*expelliarmus.SyncStats, error) { return l.durable(l.Sync) }

func (l local) compact() (*expelliarmus.SyncStats, error) { return l.durable(l.Compact) }

// durable runs a Sync-shaped operation if there is a disk to run it on.
func (l local) durable(op func() (expelliarmus.SyncStats, error)) (*expelliarmus.SyncStats, error) {
	if !l.Persistent() {
		return nil, errMemoryBacked
	}
	st, err := op()
	return &st, err
}

func (l local) vacuum() (*expelliarmus.VacuumStats, error) {
	st, err := l.Vacuum()
	return &st, err
}

func (l local) stats() (repoStats, error) {
	return repoStats{RepoStats: l.RepoStats(), Tenants: l.TenantStats()}, nil
}

func (l local) dot() (string, error) { return l.MasterGraphDOT() }

func (l local) snapshot(w io.Writer) error {
	snap, err := l.Save()
	if err != nil {
		return err
	}
	_, err = w.Write(snap)
	return err
}

// gb converts a store-scaled byte count to paper-scale gigabytes, the
// same presentation RepoStats uses for its GB fields.
func gb(b int64) float64 { return float64(catalog.Paper(b)) / 1e9 }

func main() {
	publish := flag.String("publish", "", "comma-separated template names to build and publish, or 'all'")
	retrieve := flag.String("retrieve", "", "VMI name to retrieve after publishing")
	assemble := flag.String("assemble", "", "custom assembly as name=pkg1+pkg2+...")
	noDedup := flag.Bool("no-dedup", false, "disable semantic dedup (the paper's 'Semantic' variant)")
	noBaseSel := flag.Bool("no-base-selection", false, "disable base image selection (Algorithm 2)")
	remove := flag.String("remove", "", "VMI name to remove (with garbage collection)")
	tenant := flag.String("tenant", "", "tenant account to charge published bytes to (visible in stats, enforced against server quotas)")
	ttl := flag.Duration("ttl", 0, "publish with this time-to-live: images expire (become removable by the expiry sweep) this long from now")
	expiresAt := flag.String("expires-at", "", "publish with an absolute expiry timestamp (RFC 3339, e.g. 2026-08-08T12:00:00Z); mutually exclusive with -ttl")
	vacuum := flag.Bool("vacuum", false, "reclaim dangling repository state (unreferenced packages, orphaned archives, blob orphans) after the other operations")
	syncFlag := flag.Bool("sync", false, "sync the repository after the other operations, making published state durable (and visible to follower daemons)")
	compact := flag.Bool("compact", false, "force compaction (blob segments + metadata WAL) after the other operations and report what was reclaimed")
	saveFile := flag.String("save", "", "write the repository snapshot to this file when done")
	loadFile := flag.String("load", "", "restore the repository from this snapshot file first")
	dotFile := flag.String("dot", "", "write the master graph(s) in Graphviz DOT format to this file")
	serverAddr := flag.String("server", "", "run against a live expelserverd at this address instead of in-process")
	verbose := flag.Bool("v", false, "verbose per-operation phase breakdowns")
	flag.Parse()

	expiry, err := resolveExpiry(*ttl, *expiresAt)
	check(err)
	pubOpts := expelliarmus.PublishOptions{Tenant: *tenant, ExpiresAt: expiry}

	// builder builds the catalog images; in remote mode that is all the
	// in-process System is for — the synthetic catalog is deterministic,
	// so the client and server agree on content.
	var builder *expelliarmus.System
	var repo repository
	switch {
	case *serverAddr != "":
		check(refuseRepositoryFlags(*loadFile, *noDedup, *noBaseSel))
		rem := dialRemote(*serverAddr)
		defer rem.cl.Close()
		builder, repo = expelliarmus.New(), rem
	case *publish == "" && *loadFile == "":
		fmt.Fprintln(os.Stderr, "expelctl: -publish is required; templates:")
		fmt.Fprintf(os.Stderr, "  %s\n", strings.Join(expelliarmus.Templates(), ", "))
		os.Exit(2)
	default:
		opts := expelliarmus.Options{NoSemanticDedup: *noDedup, NoBaseSelection: *noBaseSel}
		if *loadFile != "" {
			snap, err := os.ReadFile(*loadFile)
			check(err)
			builder, err = expelliarmus.Restore(snap, opts)
			check(err)
			fmt.Printf("restored repository from %s\n", *loadFile)
		} else {
			builder = expelliarmus.NewWithOptions(opts)
		}
		repo = local{builder}
	}

	var names []string
	switch {
	case *publish == "all":
		names = expelliarmus.Templates()
	case *publish != "":
		names = strings.Split(*publish, ",")
	}
	for _, name := range names {
		name = strings.TrimSpace(name)
		img, err := builder.BuildImage(name)
		check(err)
		st, err := img.Stats()
		check(err)
		pub, err := repo.publish(img, pubOpts)
		check(err)
		fmt.Printf("published %-14s mounted %.3f GB, %6d files, SimG %.2f, %5.1fs, exported %d pkgs (skipped %d)\n",
			name, st.MountedGB, st.Files, pub.Similarity, pub.Seconds, len(pub.Exported), pub.Skipped)
		printPhases(*verbose, pub.Phases)
	}

	printStats(repo, "repository")

	if *retrieve != "" {
		n, ret, err := repo.retrieve(*retrieve)
		check(err)
		fmt.Printf("retrieved %s in %.1fs (%d packages imported%s)\n",
			*retrieve, ret.Seconds, len(ret.Imported), verified(n))
		printPhases(*verbose, ret.Phases)
	}

	if *remove != "" {
		check(repo.remove(*remove))
		fmt.Printf("removed %s\n", *remove)
		printStats(repo, "repository now")
	}

	if *assemble != "" {
		name, spec, ok := strings.Cut(*assemble, "=")
		if !ok {
			check(fmt.Errorf("bad -assemble %q, want name=pkg1+pkg2", *assemble))
		}
		primaries := strings.Split(spec, "+")
		n, ret, err := repo.assemble(name, primaries)
		check(err)
		fmt.Printf("assembled %s with %v in %.1fs (%d packages imported%s)\n",
			name, primaries, ret.Seconds, len(ret.Imported), verified(n))
		printPhases(*verbose, ret.Phases)
	}

	if *syncFlag {
		st, err := repo.sync()
		if errors.Is(err, errMemoryBacked) {
			fmt.Println("sync: repository is memory-backed, nothing durable to sync (use -server against a disk-backed daemon)")
		} else {
			check(err)
			fmt.Printf("synced: %d metadata ops committed (%d metadata bytes, %d segment bytes)\n", st.MetaOps, st.MetaBytes, st.SegmentBytes)
		}
	}

	if *compact {
		st, err := repo.compact()
		if errors.Is(err, errMemoryBacked) {
			// The local CLI runs memory-backed (Save/Load snapshots), where
			// released blobs free immediately — nothing durable to compact.
			fmt.Println("compact: repository is memory-backed, nothing on disk to reclaim (use -server against a disk-backed daemon)")
		} else {
			check(err)
			fmt.Printf("compacted: %d blob segment(s) rewritten, %.3f GB reclaimed, %.3f GB dead remaining\n",
				st.SegmentsCompacted, gb(st.BytesReclaimed), gb(st.DeadBytes))
			printStats(repo, "repository now")
		}
	}

	if *vacuum {
		st, err := repo.vacuum()
		check(err)
		fmt.Printf("vacuumed: %d package(s), %d user-data archive(s), %d lifecycle record(s), %d orphan blob(s) removed, %.3f GB reclaimed\n",
			st.PackagesRemoved, st.UserDataRemoved, st.MetaRemoved, st.BlobsReleased, gb(st.BytesReclaimed))
		printStats(repo, "repository now")
	}

	if *dotFile != "" {
		dot, err := repo.dot()
		check(err)
		check(os.WriteFile(*dotFile, []byte(dot), 0o644))
		fmt.Printf("master graphs written to %s\n", *dotFile)
	}

	if *saveFile != "" {
		f, err := os.Create(*saveFile)
		check(err)
		if err := repo.snapshot(f); err != nil {
			f.Close()
			check(err)
		}
		check(f.Close())
		fmt.Printf("repository snapshot written to %s\n", *saveFile)
	}
}

// verified renders the byte count of a stream checked against the
// server's integrity trailers; local operations verify nothing.
func verified(n int64) string {
	if n == 0 {
		return ""
	}
	return fmt.Sprintf(", %d image bytes verified", n)
}

// printStats reports the catalog plus its storage footprint, keeping the
// live (deduplicated) size and the physical on-disk size apart: a
// disk-backed repository can hold garbage awaiting compaction, and
// conflating the two is exactly how dead bytes go unnoticed.
func printStats(repo repository, label string) {
	st, err := repo.stats()
	check(err)
	line := fmt.Sprintf("%s: %d VMIs, %d base image(s), %d packages, %.2f GB live",
		label, st.VMIs, st.BaseImages, st.Packages, st.TotalGB)
	if st.DiskGB > 0 {
		line += fmt.Sprintf(" (%.2f GB on disk, %.2f GB dead)", st.DiskGB, st.DeadGB)
	}
	fmt.Println(line)
	tenants := make([]string, 0, len(st.Tenants))
	for t := range st.Tenants {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	for _, t := range tenants {
		fmt.Printf("    tenant %-14s %.3f GB charged\n", t, gb(st.Tenants[t]))
	}
	switch r := st.Repl; {
	case r == nil:
	case r.Role == "follower":
		fmt.Printf("replication: follower of %s, epoch %d, applied %d bytes, lag %d bytes (%d batches / %d ops applied)\n",
			r.WriterURL, r.Epoch, r.AppliedBytes, r.LagBytes, r.Batches, r.Ops)
	default:
		fmt.Printf("replication: writer, epoch %d, %d durable WAL bytes\n", r.Epoch, r.DurableBytes)
	}
}

// resolveExpiry turns the mutually-exclusive -ttl / -expires-at flags
// into one Unix-seconds timestamp (zero: never expires).
func resolveExpiry(ttl time.Duration, expiresAt string) (int64, error) {
	switch {
	case ttl != 0 && expiresAt != "":
		return 0, fmt.Errorf("-ttl and -expires-at are mutually exclusive")
	case ttl < 0:
		return 0, fmt.Errorf("-ttl must be positive, got %v", ttl)
	case ttl > 0:
		return time.Now().Add(ttl).Unix(), nil
	case expiresAt != "":
		t, err := time.Parse(time.RFC3339, expiresAt)
		if err != nil {
			return 0, fmt.Errorf("bad -expires-at: %w", err)
		}
		return t.Unix(), nil
	}
	return 0, nil
}

// printPhases lists an operation's modeled phase breakdown under -v.
func printPhases(verbose bool, phases map[string]float64) {
	if !verbose {
		return
	}
	keys := make([]string, 0, len(phases))
	for k := range phases {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("    %-12s %6.2fs\n", k, phases[k])
	}
}

// check ends the session on the first failed step.
func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "expelctl: %v\n", err)
		os.Exit(1)
	}
}
