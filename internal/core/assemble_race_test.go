package core

import (
	"bytes"
	"errors"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"expelliarmus/internal/blobstore"
	"expelliarmus/internal/builder"
	"expelliarmus/internal/catalog"
	"expelliarmus/internal/pkgmgr"
	"expelliarmus/internal/vdisk"
	"expelliarmus/internal/vmi"
	"expelliarmus/internal/vmirepo"
)

// openHook is a blob backend that runs a callback once, just before the
// first Open of one blob. A reader opens its blobs under the view lock, so
// the callback runs while the reader holds it.
type openHook struct {
	blobstore.Backend
	id   blobstore.ID
	then func()
}

func (h *openHook) Open(id blobstore.ID) (io.ReadCloser, int64, error) {
	if id == h.id && h.then != nil {
		then := h.then
		h.then = nil
		then()
	}
	return h.Backend.Open(id)
}

// readHook is a blob backend that runs a callback once, on the first
// ReadAt of a reader over one blob. By then the reader has opened all its
// blobs and released the view lock, so the callback can land a whole
// mutation in the middle of an assembly. opens counts the opens of the
// blob.
type readHook struct {
	blobstore.Backend
	id    blobstore.ID
	then  func()
	opens atomic.Int64
}

type hookedReader struct {
	readAtCloser
	h *readHook
}

func (h *readHook) arm(id blobstore.ID, then func()) { h.id, h.then = id, then }

func (h *readHook) Open(id blobstore.ID) (io.ReadCloser, int64, error) {
	rc, size, err := h.Backend.Open(id)
	if err != nil || id != h.id {
		return rc, size, err
	}
	h.opens.Add(1)
	return &hookedReader{rc.(readAtCloser), h}, size, nil
}

func (r *hookedReader) ReadAt(p []byte, off int64) (int, error) {
	if then := r.h.then; then != nil {
		r.h.then = nil
		then()
	}
	return r.readAtCloser.ReadAt(p, off)
}

// buildAs builds template tpl under the given name, with version as the
// content of a user-data file when it is not empty.
func buildAs(t *testing.T, b *builder.Builder, tpl, name, version string) *vmi.Image {
	t.Helper()
	img := buildImage(t, b, tpl)
	img.Name = name
	if version != "" {
		fs, err := img.Mount()
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.MkdirAll("/home/user"); err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile("/home/user/version.txt", []byte(version)); err != nil {
			t.Fatal(err)
		}
	}
	return img
}

// baseBlob returns the blob ID of the base image name is clustered on.
func baseBlob(t *testing.T, repo *vmirepo.Repo, name string) blobstore.ID {
	t.Helper()
	rec, err := repo.GetVMI(name, nil)
	if err != nil {
		t.Fatal(err)
	}
	binfo, err := repo.BaseInfo(rec.BaseID)
	if err != nil {
		t.Fatal(err)
	}
	return binfo.BlobID
}

// TestRetrieveIsolatedFromRepublish: a retrieval of X reads X's base and,
// at that first read, a republish of X from another template with new
// user data lands whole. The retrieval resolved and opened everything
// under the view lock before it read a byte, so it must return X exactly
// as it was before the republish — with the cache off and on, and for an
// assembly importing X's user data.
func TestRetrieveIsolatedFromRepublish(t *testing.T) {
	b := builder.New(catalog.NewUniverse())
	for _, leg := range []struct {
		name     string
		opts     Options
		assemble bool
	}{
		{"retrieve", Options{}, false},
		{"retrieve-cached", Options{CacheBytes: testCacheBytes}, false},
		{"assemble", Options{}, true},
	} {
		t.Run(leg.name, func(t *testing.T) {
			hook := &readHook{Backend: blobstore.New()}
			s := NewSystemWithRepo(vmirepo.NewWithBackend(testDev, hook), testDev, leg.opts)
			for _, img := range []*vmi.Image{buildImage(t, b, "Redis"), buildAs(t, b, "Redis", "X", "v1")} {
				if _, err := s.Publish(img); err != nil {
					t.Fatal(err)
				}
			}
			rec, err := s.repo.GetVMI("X", nil)
			if err != nil {
				t.Fatal(err)
			}
			read := func(s *System) []byte {
				var buf bytes.Buffer
				if leg.assemble {
					_, _, err = s.AssembleTo(&buf, "custom", rec.Primaries, "X")
				} else {
					_, _, err = s.RetrieveTo(&buf, "X")
				}
				if err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			uncached := NewSystemWithRepo(s.repo, testDev, Options{})
			old := read(uncached)

			hook.arm(baseBlob(t, s.repo, "X"), func() {
				if _, err := s.Publish(buildAs(t, b, "Django", "X", "v2")); err != nil {
					t.Errorf("republish inside the retrieval: %v", err)
				}
			})
			got := read(s)
			if hook.then != nil {
				t.Fatal("the retrieval never read X's base")
			}
			switch fresh := read(uncached); {
			case bytes.Equal(got, old):
			case bytes.Equal(got, fresh):
				t.Fatal("the racing retrieval returned the republished version")
			default:
				t.Fatal("the racing retrieval equals neither the old nor the new version")
			}
		})
	}
}

// TestAssembleSurvivesBaseReplacedUnderIt: Assemble picks the master that
// provides redis-server and opens its base, and at the base's first read
// a publish commit lands whole — Algorithm 2 folds that master into the
// selected base and releases the old base image. The assembly's reader
// outlives the release, so it succeeds on its first try, with
// redis-server installed.
func TestAssembleSurvivesBaseReplacedUnderIt(t *testing.T) {
	hook := &readHook{Backend: blobstore.New()}
	s := NewSystemWithRepo(vmirepo.NewWithBackend(testDev, hook), testDev, Options{NoBaseSelection: true})
	b := builder.New(catalog.NewUniverse())
	for _, n := range []string{"Mini", "Redis"} {
		if _, err := s.Publish(buildImage(t, b, n)); err != nil {
			t.Fatal(err)
		}
	}
	s.opts.NoBaseSelection = false

	rec, err := s.repo.GetVMI("Redis", nil)
	if err != nil {
		t.Fatal(err)
	}
	redisBase := rec.BaseID
	consolidating := buildImage(t, b, "PostgreSql")
	hook.arm(baseBlob(t, s.repo, "Redis"), func() {
		rep, err := s.Publish(consolidating)
		if err != nil {
			t.Errorf("consolidating publish: %v", err)
			return
		}
		if !hasAll(rep.ReplacedBases, []string{redisBase}) {
			t.Errorf("publish replaced %v, not the assembly's base %s: the window never opened", rep.ReplacedBases, redisBase)
		}
	})

	img, _, err := s.Assemble("custom", []string{"redis-server"}, "")
	if hook.then != nil {
		t.Fatal("the assembly never read the base it chose")
	}
	if err != nil {
		t.Fatalf("assemble across a base replacement: %v", err)
	}
	if n := hook.opens.Load(); n != 1 {
		t.Fatalf("the assembly opened its base %d times, want 1", n)
	}
	fs, err := img.Mount()
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := pkgmgr.New(fs)
	if err != nil {
		t.Fatal(err)
	}
	if !mgr.IsInstalled("redis-server") {
		t.Fatal("assembled image lacks redis-server")
	}
}

// parkedPuts is a blob backend whose streamed puts wait, once armed,
// until the test releases them.
type parkedPuts struct {
	blobstore.Backend
	parked, release chan struct{}
}

func (p *parkedPuts) PutReader(r io.Reader) (blobstore.ID, int64, bool, error) {
	if p.parked != nil {
		close(p.parked)
		p.parked = nil
		<-p.release
	}
	return p.Backend.PutReader(r)
}

// TestRetrieveCompletesWhilePublishStreamsBase: a publish streams its new
// base image under its commit lock but before its view window, so a
// retrieval of another image of the same attribute class completes while
// that stream is parked.
func TestRetrieveCompletesWhilePublishStreamsBase(t *testing.T) {
	puts := &parkedPuts{Backend: blobstore.New()}
	s := NewSystemWithRepo(vmirepo.NewWithBackend(testDev, puts), testDev, Options{NoBaseSelection: true})
	b := builder.New(catalog.NewUniverse())
	if _, err := s.Publish(buildImage(t, b, "Mini")); err != nil {
		t.Fatal(err)
	}
	parked := make(chan struct{})
	puts.parked, puts.release = parked, make(chan struct{})
	published := make(chan error, 1)
	redis := buildImage(t, b, "Redis")
	go func() {
		_, err := s.Publish(redis)
		published <- err
	}()
	<-parked

	retrieved := make(chan error, 1)
	go func() {
		_, _, err := s.RetrieveTo(io.Discard, "Mini")
		retrieved <- err
	}()
	select {
	case err := <-retrieved:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("a same-class retrieval waited on a publish's base stream")
	}
	close(puts.release)
	if err := <-published; err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.RetrieveTo(io.Discard, "Redis"); err != nil {
		t.Fatal(err)
	}
}

// parkingSource serves a serialized disk. Once armed, its next ReadAt
// closes parked and waits for release; reading is true while it waits.
type parkingSource struct {
	ra              io.ReaderAt
	armed, reading  atomic.Bool
	parked, release chan struct{}
}

func (p *parkingSource) ReadAt(b []byte, off int64) (int, error) {
	if p.armed.CompareAndSwap(true, false) {
		p.reading.Store(true)
		defer p.reading.Store(false)
		close(p.parked)
		<-p.release
	}
	return p.ra.ReadAt(b, off)
}

var errBasePut = errors.New("base put failed")

// baseStreamFails is a blob backend that fails the put of a serialized
// disk, the base stream: it reads the header, arms src, lets the stream
// run on into the disk's lazy reads and fails once src has parked one.
type baseStreamFails struct {
	blobstore.Backend
	src *parkingSource
}

func (f *baseStreamFails) PutReader(r io.Reader) (blobstore.ID, int64, bool, error) {
	head := make([]byte, len(vdisk.Magic))
	n, _ := io.ReadFull(r, head)
	if !bytes.Equal(head[:n], vdisk.Magic) {
		return f.Backend.PutReader(io.MultiReader(bytes.NewReader(head[:n]), r))
	}
	f.src.armed.Store(true)
	go io.Copy(io.Discard, r) // ends when the publish closes the stream
	<-f.src.parked
	return blobstore.ID{}, 0, false, errBasePut
}

// TestPublishJoinsBaseStream: a publish whose base put fails after reading
// part of the stream returns only once the stream's writer has left the
// lazy read it was in, so a caller may release what backs the image as
// soon as the publish returns. The parked read is held for a grace period
// in which the publish must not return; then it is let go, and the publish
// fails with the backend's error.
func TestPublishJoinsBaseStream(t *testing.T) {
	img := buildImage(t, builder.New(catalog.NewUniverse()), "Mini")
	ser := img.Disk.Serialize()
	src := &parkingSource{ra: bytes.NewReader(ser), parked: make(chan struct{}), release: make(chan struct{})}
	disk, err := vdisk.DeserializeLazy(img.Name, src, int64(len(ser)))
	if err != nil {
		t.Fatal(err)
	}
	img.Disk = disk
	s := NewSystemWithRepo(vmirepo.NewWithBackend(testDev, &baseStreamFails{Backend: blobstore.New(), src: src}), testDev, Options{})

	published := make(chan error, 1)
	go func() {
		_, err := s.Publish(img)
		published <- err
	}()
	<-src.parked
	select {
	case <-published:
		close(src.release)
		t.Fatal("the publish returned while its base stream was parked in a read of the image")
	case <-time.After(250 * time.Millisecond):
	}
	close(src.release)
	if err := <-published; !errors.Is(err, errBasePut) {
		t.Fatalf("publish = %v, want the base put's error", err)
	}
	if src.reading.Load() {
		t.Fatal("the publish returned before its base stream's read did")
	}
}

// fetchBlobs is a follower's blob backend: a local store that fetches a
// blob it lacks from the writer before serving it, the in-process stand-in
// for the replica read-through.
type fetchBlobs struct {
	blobstore.Backend
	writer *vmirepo.Repo
}

func (f *fetchBlobs) Open(id blobstore.ID) (io.ReadCloser, int64, error) {
	if _, ok := f.Backend.Size(id); !ok {
		rc, _, err := f.writer.OpenBlob(id)
		if err != nil {
			return nil, 0, err
		}
		_, _, _, err = f.Backend.PutReader(rc)
		rc.Close()
		if err != nil {
			return nil, 0, err
		}
	}
	return f.Backend.Open(id)
}

// walTail reads the writer's durable WAL past the follower's position, as
// the arguments of the follower's next ApplyWAL.
func walTail(t *testing.T, w, f *vmirepo.Repo) (uint64, int64, []byte) {
	t.Helper()
	epoch, applied := f.Follower().Position()
	rc, _, err := w.WAL().WALReader(epoch, applied)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	chunk, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	return epoch, applied, chunk
}

// TestFollowerRetrieveIsolatedFromApply: a follower retrieval of X holds
// the view lock while it opens its blobs, and the WAL batch carrying a
// republish of X waits for it to let go. The retrieval returns X whole as
// it was; once the batch lands, the follower serves the republished X.
func TestFollowerRetrieveIsolatedFromApply(t *testing.T) {
	w, err := vmirepo.OpenAt(t.TempDir(), testDev)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	writer := NewSystemWithRepo(w, testDev, Options{})
	b := builder.New(catalog.NewUniverse())
	for _, img := range []*vmi.Image{buildImage(t, b, "Redis"), buildAs(t, b, "Redis", "X", "v1")} {
		if _, err := writer.Publish(img); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := writer.Sync(); err != nil {
		t.Fatal(err)
	}

	hook := &openHook{Backend: &fetchBlobs{Backend: blobstore.New(), writer: w}}
	f := vmirepo.OpenFollower(testDev, hook)
	epoch, rc, size, err := w.WAL().SnapshotReader()
	if err != nil {
		t.Fatal(err)
	}
	err = f.ResetToSnapshotReader(epoch, rc, size)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ApplyWAL(walTail(t, w, f)); err != nil {
		t.Fatal(err)
	}
	follower := NewSystemWithRepo(f, testDev, Options{})
	var old bytes.Buffer
	if _, _, err := follower.RetrieveTo(&old, "X"); err != nil {
		t.Fatal(err)
	}

	if _, err := writer.Publish(buildAs(t, b, "Django", "X", "v2")); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Sync(); err != nil {
		t.Fatal(err)
	}
	epoch, from, chunk := walTail(t, w, f)
	applied := make(chan error, 1)
	hook.id = baseBlob(t, f, "X")
	hook.then = func() {
		go func() {
			_, err := f.ApplyWAL(epoch, from, chunk)
			applied <- err
		}()
		// A blocked apply has no event to wait on: give it time to land
		// if nothing holds it back.
		time.Sleep(50 * time.Millisecond)
		select {
		case err := <-applied:
			t.Errorf("a WAL batch landed while a reader held the view lock (apply err %v)", err)
			applied <- err
		default:
		}
	}
	var got bytes.Buffer
	if _, _, err := follower.RetrieveTo(&got, "X"); err != nil {
		t.Fatal(err)
	}
	if hook.then != nil {
		t.Fatal("the follower retrieval never opened X's base")
	}
	if err := <-applied; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), old.Bytes()) {
		t.Fatal("the follower retrieval racing the batch is not X as it was before the republish")
	}

	var fresh, want bytes.Buffer
	if _, _, err := follower.RetrieveTo(&fresh, "X"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := writer.RetrieveTo(&want, "X"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh.Bytes(), want.Bytes()) || bytes.Equal(fresh.Bytes(), old.Bytes()) {
		t.Fatal("after the batch the follower does not serve the republished X")
	}
}
