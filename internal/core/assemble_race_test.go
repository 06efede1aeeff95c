package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"testing"

	"expelliarmus/internal/blobstore"
	"expelliarmus/internal/builder"
	"expelliarmus/internal/catalog"
	"expelliarmus/internal/fsx/fsxtest"
	"expelliarmus/internal/pkgmgr"
	"expelliarmus/internal/vdisk"
	"expelliarmus/internal/vmi"
	"expelliarmus/internal/vmirepo"
)

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

// viewWaits are the frames a party waits in while another holds the
// repository's view lock: a reader in ReadView's RLock, a writer in
// WriteView's Lock.
var viewWaits = []string{"(*Repo).ReadView", "(*Repo).WriteView"}

// checkReaderHolds checks a sweep that parked a reader at each of its seam
// calls while a writer ran. A reader opens its blobs under the view lock
// (System.open) and reads them after it dropped the lock, so parked in
// open it must make the writer wait in WriteView, and parked anywhere else
// it must let the writer return.
func checkReaderHolds(t *testing.T, ins []fsxtest.Interleaving) {
	t.Helper()
	held := 0
	for _, in := range ins {
		switch open := strings.Contains(in.Parked, "core.(*System).open("); {
		case open && !strings.Contains(in.Waited, "(*Repo).WriteView"):
			t.Errorf("call %d (%s %s): the writer did not wait for a reader opening its blobs under the view lock", in.N, in.Call.Op, in.Call.File)
		case !open && in.Waited != "":
			t.Errorf("call %d (%s %s): the writer waited on a reader that had dropped the view lock:\n%s", in.N, in.Call.Op, in.Call.File, in.Waited)
		case open:
			held++
		}
	}
	if held == 0 || held == len(ins) {
		t.Errorf("the reader was parked under the view lock at %d of its %d calls, want some but not all", held, len(ins))
	}
}

// checkWriterWindow checks a sweep that parked a writer at each of its
// blob calls while a reader ran. The writer's only blob calls inside its
// view window are Releases, so the reader must wait in ReadView exactly
// when the writer was parked at one.
func checkWriterWindow(t *testing.T, ins []fsxtest.Interleaving) {
	t.Helper()
	for _, in := range ins {
		if waited := strings.Contains(in.Waited, "(*Repo).ReadView"); waited != (in.Call.Op == "Release") {
			t.Errorf("call %d (%s %s): the reader waited in ReadView: %v, want %v", in.N, in.Call.Op, in.Call.File, waited, !waited)
		}
	}
}

// namedState names img by the first of states whose bytes it equals, as a
// sweep's party names the committed state it saw.
func namedState(img []byte, err error, states map[string][]byte) (string, error) {
	if err != nil {
		return "", err
	}
	for name, want := range states {
		if bytes.Equal(img, want) {
			return name, nil
		}
	}
	return fmt.Sprintf("%d bytes of no committed state", len(img)), nil
}

// TestRetrieveIsolatedFromRepublish sweeps a retrieval of X against a
// republish of X from another template with new user data, with the cache
// off and on, and for an assembly importing X's user data. Parked at each
// of its blob calls, the republish lets the retrieval return X as it was
// while it exports, and makes it wait and return the new X once its view
// window opened. Parked at each of its blob calls, the retrieval makes the
// republish wait while it opens its blobs and returns X as it was. After
// every trial the system serves the new X: a cached retrieval that the
// republish overtook did not insert the old one.
func TestRetrieveIsolatedFromRepublish(t *testing.T) {
	b := builder.New(catalog.NewUniverse())
	redis, v1, v2 := buildImage(t, b, "Redis"), buildAs(t, b, "Redis", "X", "v1"), buildAs(t, b, "Django", "X", "v2")
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
			read := func(s *System) ([]byte, error) {
				var buf bytes.Buffer
				var err error
				if leg.assemble {
					_, _, err = s.AssembleTo(&buf, "custom", v1.Primaries, "X")
				} else {
					_, _, err = s.RetrieveTo(&buf, "X")
				}
				return buf.Bytes(), err
			}
			states := map[string][]byte{}
			ref := NewSystem(testDev, Options{})
			for _, st := range []struct {
				name string
				imgs []*vmi.Image
			}{{"v1", []*vmi.Image{redis, v1}}, {"v2", []*vmi.Image{v2}}} {
				publishAll(t, ref, st.imgs...)
				img, err := read(ref)
				if err != nil {
					t.Fatal(err)
				}
				states[st.name] = img
			}
			var systems []*System
			sched := func(writerFirst bool) fsxtest.Schedule {
				return func(t *testing.T, p *fsxtest.Pause) (fsxtest.Party, fsxtest.Party) {
					s := NewSystemWithRepo(vmirepo.NewWithBackend(testDev, p.Blobs(blobstore.New())), testDev, leg.opts)
					publishAll(t, s, redis, v1)
					systems = append(systems, s)
					reader := func() (string, error) {
						img, err := read(s)
						return namedState(img, err, states)
					}
					writer := func() (string, error) {
						_, err := s.Publish(v2)
						return "", err
					}
					if writerFirst {
						return writer, reader
					}
					return reader, writer
				}
			}
			t.Run("writer-parked", func(t *testing.T) {
				checkWriterWindow(t, fsxtest.PauseSweep(t, []string{"v1", "v2"}, []fsxtest.Window{
					{Name: "export", Want: "v1"},
					{Name: "commit", Op: "Release", Want: "v2"},
				}, viewWaits, sched(true)))
			})
			t.Run("reader-parked", func(t *testing.T) {
				checkReaderHolds(t, fsxtest.PauseSweep(t, []string{"v1"}, nil, viewWaits, sched(false)))
			})
			for _, s := range systems {
				if img, err := read(s); err != nil || !bytes.Equal(img, states["v2"]) {
					t.Fatalf("after a trial the system does not serve the republished X (%v)", err)
				}
			}
		})
	}
}

// TestAssembleSurvivesBaseReplacedUnderIt sweeps an assembly of
// redis-server against a publish whose commit folds the master providing
// it into another base and releases the old base image (Algorithm 2).
// Parked at each of its blob calls, the assembly, which opened that base,
// outlives the release and installs redis-server on it, on its first try.
// Parked at each of the publish's, it assembles on the old base or, once
// the publish's view window opened, on the new one.
func TestAssembleSurvivesBaseReplacedUnderIt(t *testing.T) {
	b := builder.New(catalog.NewUniverse())
	mini, redis, consolidating := buildImage(t, b, "Mini"), buildImage(t, b, "Redis"), buildImage(t, b, "PostgreSql")
	assemble := func(s *System) ([]byte, error) {
		var buf bytes.Buffer
		_, _, err := s.AssembleTo(&buf, "custom", []string{"redis-server"}, "")
		return buf.Bytes(), err
	}
	// setup publishes Mini and Redis on separate bases and returns the
	// system, whose next publish may replace bases, and Redis's base.
	setup := func(t *testing.T, blobs blobstore.Backend) (*System, string) {
		s := NewSystemWithRepo(vmirepo.NewWithBackend(testDev, blobs), testDev, Options{NoBaseSelection: true})
		publishAll(t, s, mini, redis)
		s.opts.NoBaseSelection = false
		rec, err := s.repo.GetVMI("Redis", nil)
		if err != nil {
			t.Fatal(err)
		}
		return s, rec.BaseID
	}
	ref, _ := setup(t, blobstore.New())
	oldBase, err := assemble(ref)
	if err != nil {
		t.Fatal(err)
	}
	publishAll(t, ref, consolidating)
	newBase, err := assemble(ref)
	if err != nil {
		t.Fatal(err)
	}
	states := map[string][]byte{"old-base": oldBase, "new-base": newBase}
	img, _, err := decodeImage("custom", oldBase, &RetrieveReport{})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := img.Mount()
	if err != nil {
		t.Fatal(err)
	}
	if mgr, err := pkgmgr.New(fs); err != nil || !mgr.IsInstalled("redis-server") {
		t.Fatalf("assembled image lacks redis-server (%v)", err)
	}

	sched := func(writerFirst bool) fsxtest.Schedule {
		return func(t *testing.T, p *fsxtest.Pause) (fsxtest.Party, fsxtest.Party) {
			s, redisBase := setup(t, p.Blobs(blobstore.New()))
			reader := func() (string, error) {
				img, err := assemble(s)
				return namedState(img, err, states)
			}
			writer := func() (string, error) {
				rep, err := s.Publish(consolidating)
				if err == nil && !hasAll(rep.ReplacedBases, []string{redisBase}) {
					err = fmt.Errorf("publish replaced %v, not the assembly's base %s", rep.ReplacedBases, redisBase)
				}
				return "", err
			}
			if writerFirst {
				return writer, reader
			}
			return reader, writer
		}
	}
	t.Run("writer-parked", func(t *testing.T) {
		checkWriterWindow(t, fsxtest.PauseSweep(t, []string{"old-base", "new-base"}, []fsxtest.Window{
			{Name: "export", Want: "old-base"},
			{Name: "commit", Op: "Release", Want: "new-base"},
		}, viewWaits, sched(true)))
	})
	t.Run("reader-parked", func(t *testing.T) {
		checkReaderHolds(t, fsxtest.PauseSweep(t, []string{"old-base"}, nil, viewWaits, sched(false)))
	})
}

// TestRetrieveCompletesWhilePublishStreamsBase: a publish streams its new
// base image under its commit lock but before its view window, so a
// retrieval of another image of the same attribute class, swept against
// each of the publish's blob calls, returns without waiting on it.
func TestRetrieveCompletesWhilePublishStreamsBase(t *testing.T) {
	b := builder.New(catalog.NewUniverse())
	mini, redis := buildImage(t, b, "Mini"), buildImage(t, b, "Redis")
	ref := NewSystem(testDev, Options{NoBaseSelection: true})
	publishAll(t, ref, mini)
	states := map[string][]byte{"mini": retrieveBytes(t, ref, "Mini")}
	ins := fsxtest.PauseSweep(t, []string{"mini"}, nil, viewWaits, func(t *testing.T, p *fsxtest.Pause) (fsxtest.Party, fsxtest.Party) {
		s := NewSystemWithRepo(vmirepo.NewWithBackend(testDev, p.Blobs(blobstore.New())), testDev, Options{NoBaseSelection: true})
		publishAll(t, s, mini)
		return func() (string, error) {
				rep, err := s.Publish(redis)
				if err == nil && !rep.BaseStored {
					err = errors.New("the publish stored no base")
				}
				return "", err
			}, func() (string, error) {
				var buf bytes.Buffer
				_, _, err := s.RetrieveTo(&buf, "Mini")
				return namedState(buf.Bytes(), err, states)
			}
	})
	checkWriterWindow(t, ins)
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
// soon as the publish returns. The parked read is held until a goroutine
// dump shows the publish waiting in PublishWith itself, where its only
// wait is for the stream's writer; a publish that returns first fails the
// test at once. Then the read is let go, and the publish fails with the
// backend's error.
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

	published, returned := make(chan error, 1), make(chan struct{})
	go func() {
		defer close(returned)
		_, err := s.Publish(img)
		published <- err
	}()
	<-src.parked
	if !fsxtest.AwaitWaiting(1, "core.(*System).PublishWith(", returned) {
		close(src.release)
		t.Fatal("the publish returned while its base stream was parked in a read of the image")
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

// TestFollowerRetrieveIsolatedFromApply sweeps a follower retrieval of X
// against the WAL batch carrying a republish of X. Parked at each of its
// blob calls, the retrieval makes the batch wait while it opens its blobs
// under the view lock, lets it land once it reads, and returns X whole as
// it was. Once the batch lands, the follower serves the republished X.
func TestFollowerRetrieveIsolatedFromApply(t *testing.T) {
	w, err := vmirepo.OpenAt(t.TempDir(), testDev)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	writer := NewSystemWithRepo(w, testDev, Options{})
	b := builder.New(catalog.NewUniverse())
	publishAll(t, writer, buildImage(t, b, "Redis"), buildAs(t, b, "Redis", "X", "v1"))
	if _, err := writer.Sync(); err != nil {
		t.Fatal(err)
	}
	epoch, rc, size, err := w.WAL().SnapshotReader()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	// follower opens a follower of the writer as of the snapshot and the
	// given WAL chunks, whose blob calls go through wrap. Every follower
	// keeps the blobs it fetches in local, so the first one, which
	// retrieves the old X, keeps blobs the writer's republish releases.
	local := blobstore.New()
	follower := func(t *testing.T, wrap func(blobstore.Backend) blobstore.Backend, chunks ...[]byte) (*System, *vmirepo.Repo) {
		f := vmirepo.OpenFollower(testDev, wrap(&fetchBlobs{Backend: local, writer: w}))
		if err := f.ResetToSnapshotReader(epoch, bytes.NewReader(snap), size); err != nil {
			t.Fatal(err)
		}
		for _, chunk := range chunks {
			epoch, applied := f.Follower().Position()
			if _, err := f.ApplyWAL(epoch, applied, chunk); err != nil {
				t.Fatal(err)
			}
		}
		return NewSystemWithRepo(f, testDev, Options{}), f
	}
	unwrapped := func(b blobstore.Backend) blobstore.Backend { return b }
	_, f := follower(t, unwrapped)
	_, _, published := walTail(t, w, f)
	s, f := follower(t, unwrapped, published)
	states := map[string][]byte{"v1": retrieveBytes(t, s, "X")}

	publishAll(t, writer, buildAs(t, b, "Django", "X", "v2"))
	if _, err := writer.Sync(); err != nil {
		t.Fatal(err)
	}
	_, _, republish := walTail(t, w, f)
	ins := fsxtest.PauseSweep(t, []string{"v1"}, nil, viewWaits, func(t *testing.T, p *fsxtest.Pause) (fsxtest.Party, fsxtest.Party) {
		s, f := follower(t, p.Blobs, published)
		return func() (string, error) {
				var buf bytes.Buffer
				_, _, err := s.RetrieveTo(&buf, "X")
				return namedState(buf.Bytes(), err, states)
			}, func() (string, error) {
				epoch, applied := f.Follower().Position()
				_, err := f.ApplyWAL(epoch, applied, republish)
				return "", err
			}
	})
	checkReaderHolds(t, ins)

	s, _ = follower(t, unwrapped, published, republish)
	if got, want := retrieveBytes(t, s, "X"), retrieveBytes(t, writer, "X"); !bytes.Equal(got, want) || bytes.Equal(got, states["v1"]) {
		t.Fatal("after the batch the follower does not serve the republished X")
	}
}
