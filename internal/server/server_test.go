package server_test

// Client/server integration tests over a real TCP loopback listener —
// httptest's in-process transport would skip exactly the failure modes
// these pin: mid-request connection aborts, request deadlines, and the
// chunked-framing truncation signal. All run under -race in CI.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"expelliarmus/internal/blobstore"
	"expelliarmus/internal/catalog"
	"expelliarmus/internal/client"
	"expelliarmus/internal/core"
	"expelliarmus/internal/fstree"
	"expelliarmus/internal/pkgmgr"
	"expelliarmus/internal/server"
	"expelliarmus/internal/simio"
	"expelliarmus/internal/vdisk"
	"expelliarmus/internal/vmi"
	"expelliarmus/internal/vmirepo"
	"expelliarmus/internal/wire"
)

func testDevice() *simio.Device {
	return simio.NewDevice(simio.PaperProfile().Scaled(catalog.ByteScale, catalog.FileScale))
}

// startServer serves sys on a real loopback listener and returns its
// address plus the http.Server for shutdown-path tests.
func startServer(t *testing.T, sys *core.System) (string, *http.Server) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: server.New(sys)}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String(), srv
}

// buildTestImage installs the essential package closure onto a fresh
// disk, optionally adds user data under /home and an opaque bulk payload
// under /opt/bulk (outside package management and user-data roots, so it
// rides in the base image and bloats the retrieval stream).
func buildTestImage(t *testing.T, name string, userData bool, bulk int64) *vmi.Image {
	t.Helper()
	uni := catalog.NewUniverse()
	names, err := pkgmgr.Closure(uni, uni.EssentialNames())
	if err != nil {
		t.Fatal(err)
	}
	var contentReal int64
	realFiles := 0
	for _, n := range names {
		spec, _ := uni.Spec(n)
		contentReal += catalog.Real(spec.InstalledSize)
		realFiles += catalog.RealFiles(spec.FileCount) + 1
	}
	const clusterSize = vdisk.DefaultClusterSize
	maxInodes := uint32(realFiles+realFiles/4+128) + 512
	virtualSize := contentReal*3 + bulk + bulk/8 + int64(maxInodes)*64*2 + 8<<20
	virtualSize = (virtualSize + clusterSize - 1) / clusterSize * clusterSize

	disk := vdisk.New(name, virtualSize, clusterSize)
	fs, err := fstree.Format(disk, maxInodes)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := pkgmgr.New(fs)
	if err != nil {
		t.Fatal(err)
	}
	order, err := pkgmgr.InstallOrder(uni, names)
	if err != nil {
		t.Fatal(err)
	}
	for _, group := range order {
		for _, n := range group {
			spec, _ := uni.Spec(n)
			files, err := uni.FilesFor(n)
			if err != nil {
				t.Fatal(err)
			}
			if err := mgr.InstallPackage(spec.Package, files); err != nil {
				t.Fatal(err)
			}
		}
	}
	if userData {
		if err := fs.MkdirAll("/home/user"); err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile("/home/user/notes.txt", []byte("remote user data")); err != nil {
			t.Fatal(err)
		}
	}
	if bulk > 0 {
		if err := fs.MkdirAll("/opt/bulk"); err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile("/opt/bulk/payload.bin", catalog.GenContent(0x5EC1+uint64(bulk), int(bulk))); err != nil {
			t.Fatal(err)
		}
	}
	return &vmi.Image{Name: name, Base: uni.Release().Base, Disk: disk}
}

type shaCounter struct {
	h hash.Hash
	n int64
}

func newShaCounter() *shaCounter { return &shaCounter{h: sha256.New()} }

func (w *shaCounter) Write(p []byte) (int, error) {
	w.h.Write(p)
	w.n += int64(len(p))
	return len(p), nil
}

func (w *shaCounter) sum() string { return fmt.Sprintf("%x", w.h.Sum(nil)) }

// TestRemoteRoundTrip publishes over the wire and checks the remote
// retrieval is byte-identical to an in-process one — the fidelity half
// of the tentpole's headline gate.
func TestRemoteRoundTrip(t *testing.T) {
	sys := core.NewSystem(testDevice(), core.Options{})
	addr, _ := startServer(t, sys)
	cl := client.New(addr, client.Options{Timeout: 2 * time.Minute, Retries: 1})
	defer cl.Close()
	ctx := context.Background()

	img := buildTestImage(t, "round-trip", true, 1<<20)
	pub, err := cl.Publish(ctx, func(w io.Writer) error { return wire.WriteImage(w, img) })
	if err != nil {
		t.Fatalf("remote publish: %v", err)
	}
	// An essential-only image decomposes entirely into its base: a fresh
	// base must be stored, and nothing package-exported.
	if !pub.BaseStored || pub.Seconds <= 0 {
		t.Fatalf("publish result implausible: %+v", pub)
	}

	local := newShaCounter()
	if _, _, err := sys.RetrieveTo(local, "round-trip"); err != nil {
		t.Fatalf("in-process retrieve: %v", err)
	}
	remote := newShaCounter()
	n, res, err := cl.Retrieve(ctx, "round-trip", remote)
	if err != nil {
		t.Fatalf("remote retrieve: %v", err)
	}
	if n != local.n || remote.sum() != local.sum() {
		t.Fatalf("remote image differs: %d bytes %s, in-process %d bytes %s",
			n, remote.sum(), local.n, local.sum())
	}
	if res == nil || res.Seconds <= 0 {
		t.Fatalf("retrieve result missing: %+v", res)
	}

	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.VMIs != 1 || st.Bases != 1 {
		t.Fatalf("stats = %+v, want 1 VMI on 1 base", st)
	}
}

// TestStatsInProcessMatchesRemote: GET /v1/stats is core's Stats and
// nothing else, so a disk-backed writer with the cache on and a tenant
// charged reports the same value in process and over the wire, writer
// replication section included.
func TestStatsInProcessMatchesRemote(t *testing.T) {
	repo, err := vmirepo.OpenAtOpts(t.TempDir(), testDevice(), vmirepo.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sys := core.NewSystemWithRepo(repo, testDevice(), core.Options{CacheBytes: 64 << 20})
	t.Cleanup(func() { sys.Close() })
	addr, _ := startServer(t, sys)
	cl := client.New(addr, client.Options{Timeout: 2 * time.Minute})
	defer cl.Close()
	ctx := context.Background()

	img := buildTestImage(t, "stats", true, 0)
	if _, err := cl.Publish(ctx, func(w io.Writer) error {
		return wire.WriteImageMeta(w, img, wire.PublishMeta{Tenant: "alice"})
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if _, _, err := cl.Retrieve(ctx, "stats", io.Discard); err != nil {
			t.Fatal(err)
		}
	}

	got, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := sys.Stats()
	if !reflect.DeepEqual(*got, want) {
		t.Fatalf("remote stats differ from in-process:\n got %+v\nwant %+v", *got, want)
	}
	if want.Repl == nil || want.Repl.Role != "writer" || want.Repl.DurableBytes == 0 {
		t.Fatalf("writer replication section = %+v", want.Repl)
	}
	if want.Tenants["alice"] == 0 || want.CacheHits == 0 || want.DiskBytes == 0 {
		t.Fatalf("stats left a section empty: %+v", want)
	}
}

// TestRemoteNoUserData is the regression for the OpenUserData absent
// case: a VMI published without any user data must retrieve cleanly over
// the wire (the nil-reader, nil-error return must never be dereferenced
// anywhere on the serving path).
func TestRemoteNoUserData(t *testing.T) {
	sys := core.NewSystem(testDevice(), core.Options{})
	addr, _ := startServer(t, sys)
	cl := client.New(addr, client.Options{Timeout: 2 * time.Minute})
	defer cl.Close()
	ctx := context.Background()

	img := buildTestImage(t, "no-user-data", false, 0)
	if _, err := cl.Publish(ctx, func(w io.Writer) error { return wire.WriteImage(w, img) }); err != nil {
		t.Fatalf("remote publish: %v", err)
	}
	sink := newShaCounter()
	n, _, err := cl.Retrieve(ctx, "no-user-data", sink)
	if err != nil {
		t.Fatalf("remote retrieve of a user-data-free VMI: %v", err)
	}
	if n == 0 {
		t.Fatalf("retrieved empty image")
	}
	// And the same image again via assembly, which takes the other
	// OpenUserData-adjacent path (userDataFrom empty).
	if _, _, err := cl.Assemble(ctx, wire.AssembleRequest{Name: "no-user-data-2", Primaries: nil}, io.Discard); err != nil {
		t.Fatalf("remote assemble: %v", err)
	}
}

// TestRemotePublishCorruptSuperblock: a published image whose guest
// superblock claims a geometry its disk cannot back — the first took the
// process down with an out-of-memory fault, the second panicked on a
// bitmap index — is answered with an error, and the server keeps serving.
func TestRemotePublishCorruptSuperblock(t *testing.T) {
	sys := core.NewSystem(testDevice(), core.Options{})
	addr, _ := startServer(t, sys)
	cl := client.New(addr, client.Options{Timeout: 2 * time.Minute})
	defer cl.Close()
	ctx := context.Background()

	for _, tc := range []struct {
		name  string
		field int64 // superblock offset
		value uint32
	}{
		{"bitmap-blocks", 12, 0xFFFFFFFF},
		{"total-blocks", 8, 1 << 30},
	} {
		img := buildTestImage(t, "corrupt-"+tc.name, false, 0)
		var v [4]byte
		binary.BigEndian.PutUint32(v[:], tc.value)
		if _, err := img.Disk.WriteAt(v[:], tc.field); err != nil {
			t.Fatal(err)
		}
		_, err := cl.Publish(ctx, func(w io.Writer) error { return wire.WriteImage(w, img) })
		if err == nil || !strings.Contains(err.Error(), "superblock claims") {
			t.Fatalf("%s: remote publish = %v, want the mount's geometry error", tc.name, err)
		}
	}
	if st, err := cl.Stats(ctx); err != nil || st.VMIs != 0 {
		t.Fatalf("stats after refused publishes = %+v, %v", st, err)
	}
	good := buildTestImage(t, "after-corrupt", false, 0)
	if _, err := cl.Publish(ctx, func(w io.Writer) error { return wire.WriteImage(w, good) }); err != nil {
		t.Fatalf("publish after refused publishes: %v", err)
	}
}

// TestRemotePublishHostileVirtualSize: a few-kilobyte sparse envelope
// declaring a terabyte disk gets the 400 of any malformed envelope, and
// nothing is published.
func TestRemotePublishHostileVirtualSize(t *testing.T) {
	sys := core.NewSystem(testDevice(), core.Options{})
	addr, _ := startServer(t, sys)
	disk := vdisk.New("huge", 1<<40, vdisk.DefaultClusterSize)
	if _, err := disk.WriteAt([]byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if err := wire.WriteImage(&body, &vmi.Image{Name: "huge", Disk: disk}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+addr+"/v1/images", "application/octet-stream", &body)
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "virtual size") {
		t.Fatalf("hostile publish = %d %q, want 400 naming the virtual size", resp.StatusCode, msg)
	}
	if n := len(sys.Repo().VMIs()); n != 0 {
		t.Fatalf("%d VMIs stored after a refused publish", n)
	}
}

// TestRemoteNotFound pins the error mapping for absence.
func TestRemoteNotFound(t *testing.T) {
	sys := core.NewSystem(testDevice(), core.Options{})
	addr, _ := startServer(t, sys)
	cl := client.New(addr, client.Options{Timeout: time.Minute})
	defer cl.Close()

	_, _, err := cl.Retrieve(context.Background(), "never-published", io.Discard)
	if !errors.Is(err, vmirepo.ErrNotFound) {
		t.Fatalf("remote retrieve of missing VMI = %v, want ErrNotFound", err)
	}
	if errors.Is(err, blobstore.ErrCorrupt) {
		t.Fatalf("absence misreported as corruption: %v", err)
	}
}

// TestConcurrentRemoteRetrieves races many clients over pooled
// connections against one shared system; every stream must verify and
// match every other.
func TestConcurrentRemoteRetrieves(t *testing.T) {
	sys := core.NewSystem(testDevice(), core.Options{})
	addr, _ := startServer(t, sys)
	cl := client.New(addr, client.Options{Timeout: 2 * time.Minute})
	defer cl.Close()
	ctx := context.Background()

	img := buildTestImage(t, "concurrent", true, 2<<20)
	if _, err := cl.Publish(ctx, func(w io.Writer) error { return wire.WriteImage(w, img) }); err != nil {
		t.Fatal(err)
	}
	ref := newShaCounter()
	if _, _, err := sys.RetrieveTo(ref, "concurrent"); err != nil {
		t.Fatal(err)
	}

	const clients = 8
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sink := newShaCounter()
			n, _, err := cl.Retrieve(ctx, "concurrent", sink)
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			if n != ref.n || sink.sum() != ref.sum() {
				t.Errorf("client %d: stream differs from in-process retrieval", i)
			}
		}(i)
	}
	wg.Wait()
}

// closeServerSink closes the server after the first body bytes arrive,
// then keeps consuming: the remainder of the stream must fail, not
// silently end.
type closeServerSink struct {
	srv  *http.Server
	once sync.Once
	n    int64
}

func (s *closeServerSink) Write(p []byte) (int, error) {
	s.once.Do(func() { s.srv.Close() })
	s.n += int64(len(p))
	return len(p), nil
}

// TestMidRequestShutdown kills the server while a retrieval is streaming;
// the client must surface an error — never a short-but-clean image.
func TestMidRequestShutdown(t *testing.T) {
	sys := core.NewSystem(testDevice(), core.Options{})
	addr, srv := startServer(t, sys)
	cl := client.New(addr, client.Options{Timeout: 2 * time.Minute})
	defer cl.Close()
	ctx := context.Background()

	// Big enough that the response cannot fit in the socket buffers: the
	// server is still writing when the connection dies.
	img := buildTestImage(t, "shutdown", false, 24<<20)
	if _, err := cl.Publish(ctx, func(w io.Writer) error { return wire.WriteImage(w, img) }); err != nil {
		t.Fatal(err)
	}
	sink := &closeServerSink{srv: srv}
	_, _, err := cl.Retrieve(ctx, "shutdown", sink)
	if err == nil {
		t.Fatalf("retrieve across a server shutdown reported success (%d bytes)", sink.n)
	}
}

// TestRequestDeadline pins the per-request deadline: a client-imposed
// timeout shorter than the retrieval must surface context.DeadlineExceeded.
func TestRequestDeadline(t *testing.T) {
	sys := core.NewSystem(testDevice(), core.Options{})
	addr, _ := startServer(t, sys)
	slow := client.New(addr, client.Options{Timeout: time.Millisecond})
	defer slow.Close()
	setup := client.New(addr, client.Options{Timeout: 2 * time.Minute})
	defer setup.Close()
	ctx := context.Background()

	img := buildTestImage(t, "deadline", false, 8<<20)
	if _, err := setup.Publish(ctx, func(w io.Writer) error { return wire.WriteImage(w, img) }); err != nil {
		t.Fatal(err)
	}
	_, _, err := slow.Retrieve(ctx, "deadline", io.Discard)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("1ms-deadline retrieve = %v, want DeadlineExceeded", err)
	}
}

// corruptSegmentKinds flips the kind byte of every record in every
// segment file under dir — in place, on the same inodes the store holds
// open, so its positional reads see the damage immediately.
func corruptSegmentKinds(t *testing.T, dir string) {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if !strings.HasPrefix(de.Name(), "seg-") {
			continue
		}
		path := filepath.Join(dir, de.Name())
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Records start after the 8-byte magic: [crc|len|kind|payload].
		for off := int64(8); off+9 <= int64(len(raw)); {
			plen := int64(binary.LittleEndian.Uint32(raw[off+4 : off+8]))
			if _, err := f.WriteAt([]byte{0xEE}, off+8); err != nil {
				t.Fatal(err)
			}
			off += 9 + plen
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRemoteCorruptIsNotNotFound is the acceptance gate's remote half:
// after on-disk damage, a remote retrieval must report corruption —
// wrapping blobstore.ErrCorrupt through the HTTP error mapping — and
// never a 404.
func TestRemoteCorruptIsNotNotFound(t *testing.T) {
	dir := t.TempDir()
	repo, err := vmirepo.OpenAtOpts(dir, testDevice(), vmirepo.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sys := core.NewSystemWithRepo(repo, testDevice(), core.Options{})
	addr, _ := startServer(t, sys)
	cl := client.New(addr, client.Options{Timeout: 2 * time.Minute})
	defer cl.Close()
	ctx := context.Background()

	img := buildTestImage(t, "rot", true, 1<<20)
	if _, err := cl.Publish(ctx, func(w io.Writer) error { return wire.WriteImage(w, img) }); err != nil {
		t.Fatal(err)
	}
	// Flush the records to disk, then damage every one of them.
	if _, err := cl.Sync(ctx); err != nil {
		t.Fatalf("remote sync: %v", err)
	}
	corruptSegmentKinds(t, filepath.Join(dir, "blobs"))

	_, _, err = cl.Retrieve(ctx, "rot", io.Discard)
	if err == nil {
		t.Fatalf("remote retrieve served a corrupt repository")
	}
	if !errors.Is(err, blobstore.ErrCorrupt) {
		t.Fatalf("remote retrieve of corrupt blob = %v, want ErrCorrupt", err)
	}
	if errors.Is(err, vmirepo.ErrNotFound) {
		t.Fatalf("corruption conflated with absence over the wire: %v", err)
	}
	// The store is sticky-failed now; Close would rightly error. Leave the
	// handles to the process exit — this repository is damage evidence.
}

// TestRemoteCompactReclaims exercises the compaction verb end to end on
// a disk-backed server: remove a bulky VMI, observe dead bytes in the
// stats, POST /v1/compact, and watch the physical footprint shrink while
// a surviving image still retrieves byte-identically. Auto-compaction is
// disabled so the reclamation is attributable to the verb under test.
func TestRemoteCompactReclaims(t *testing.T) {
	dir := t.TempDir()
	repo, err := vmirepo.OpenAtOpts(dir, testDevice(), vmirepo.OpenOptions{BlobCompactDeadRatio: -1})
	if err != nil {
		t.Fatal(err)
	}
	sys := core.NewSystemWithRepo(repo, testDevice(), core.Options{})
	addr, _ := startServer(t, sys)
	cl := client.New(addr, client.Options{Timeout: 2 * time.Minute})
	defer cl.Close()
	ctx := context.Background()

	// Publish and remove a victim on its own, syncing so its releases
	// commit and its whole base goes dead on disk; then publish the
	// keeper, whose fresh base lands on top of the garbage and straddles
	// the segment roll — compaction must rewrite those live records out
	// of the mostly-dead sealed segment.
	victim := buildTestImage(t, "victim", false, 4<<20)
	if _, err := cl.Publish(ctx, func(w io.Writer) error { return wire.WriteImage(w, victim) }); err != nil {
		t.Fatal(err)
	}
	if err := cl.Remove(ctx, "victim"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	keeper := buildTestImage(t, "keeper", true, 1<<20)
	if _, err := cl.Publish(ctx, func(w io.Writer) error { return wire.WriteImage(w, keeper) }); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	ref := newShaCounter()
	if _, _, err := cl.Retrieve(ctx, "keeper", ref); err != nil {
		t.Fatal(err)
	}
	before, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if before.DeadBytes == 0 {
		t.Fatalf("removal left no visible garbage: %+v", before)
	}

	cst, err := cl.Compact(ctx)
	if err != nil {
		t.Fatalf("remote compact: %v", err)
	}
	if cst.SegmentsCompacted == 0 || cst.BytesReclaimed == 0 {
		t.Fatalf("compact reclaimed nothing: %+v", cst)
	}
	after, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after.DiskBytes >= before.DiskBytes {
		t.Fatalf("disk footprint did not shrink: %d -> %d", before.DiskBytes, after.DiskBytes)
	}
	if after.TotalBytes != before.TotalBytes {
		t.Fatalf("compaction changed the live size: %d -> %d", before.TotalBytes, after.TotalBytes)
	}
	sink := newShaCounter()
	if _, _, err := cl.Retrieve(ctx, "keeper", sink); err != nil {
		t.Fatalf("retrieve after compact: %v", err)
	}
	if sink.n != ref.n || sink.sum() != ref.sum() {
		t.Fatalf("keeper changed across compaction")
	}
}

// TestRemoteRemoveAndSnapshot covers the remaining verbs end to end.
func TestRemoteRemoveAndSnapshot(t *testing.T) {
	sys := core.NewSystem(testDevice(), core.Options{})
	addr, _ := startServer(t, sys)
	cl := client.New(addr, client.Options{Timeout: 2 * time.Minute})
	defer cl.Close()
	ctx := context.Background()

	img := buildTestImage(t, "verbs", true, 0)
	if _, err := cl.Publish(ctx, func(w io.Writer) error { return wire.WriteImage(w, img) }); err != nil {
		t.Fatal(err)
	}
	dot, err := cl.GraphDOT(ctx)
	if err != nil || !strings.Contains(dot, "digraph") {
		t.Fatalf("GraphDOT = %q, %v", dot, err)
	}
	var snap bytes.Buffer
	if n, err := cl.Snapshot(ctx, &snap); err != nil || n == 0 {
		t.Fatalf("Snapshot = %d, %v", n, err)
	}
	if err := cl.Remove(ctx, "verbs"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if err := cl.Remove(ctx, "verbs"); !errors.Is(err, vmirepo.ErrNotFound) {
		t.Fatalf("second Remove = %v, want ErrNotFound", err)
	}
	st, err := cl.Stats(ctx)
	if err != nil || st.VMIs != 0 {
		t.Fatalf("stats after remove = %+v, %v", st, err)
	}
}

// countingReader counts the bytes a handler pulled out of a request body.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// TestAssembleBodyCapped: an assemble request is one JSON value the
// decoder buffers whole before anything validates it, so a body past
// wire.MaxHeaderBytes must be refused with 413 after at most cap+1 bytes
// were read — not held in memory to the end. A request at the cap's scale
// but inside it still reaches the assembler (and fails there: the
// repository is empty).
func TestAssembleBodyCapped(t *testing.T) {
	srv := server.New(core.NewSystem(testDevice(), core.Options{}))
	post := func(nameLen int) (*httptest.ResponseRecorder, int64) {
		body := &countingReader{r: strings.NewReader(`{"Name":"` + strings.Repeat("a", nameLen) + `"}`)}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/assemble", body))
		return rec, body.n
	}

	rec, read := post(8 * wire.MaxHeaderBytes)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-cap body: status %d (%s), want 413", rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	if read > wire.MaxHeaderBytes+1 {
		t.Fatalf("over-cap body: handler read %d bytes, cap is %d", read, wire.MaxHeaderBytes)
	}

	if rec, _ := post(wire.MaxHeaderBytes / 2); !strings.Contains(rec.Body.String(), "core: no stored base") {
		t.Fatalf("in-cap body: status %d (%s), want the assembler's own refusal", rec.Code, strings.TrimSpace(rec.Body.String()))
	}
}
