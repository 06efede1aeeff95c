package core

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"expelliarmus/internal/builder"
	"expelliarmus/internal/catalog"
	"expelliarmus/internal/fsx"
	"expelliarmus/internal/fsx/fsxtest"
	"expelliarmus/internal/vmirepo"
)

// openChurn opens the disk-backed repository in dir on fsys (nil for the
// real file system), with blob segments that roll at 256 KiB, so a
// published base spans segments that removing it leaves wholly dead: the
// next Compact retires them.
func openChurn(t *testing.T, dir string, fsys fsx.FS) *System {
	t.Helper()
	repo, err := vmirepo.OpenAtOpts(dir, testDev, vmirepo.OpenOptions{BlobMaxSegmentBytes: 256 << 10, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSystemWithRepo(repo, testDev, Options{})
	t.Cleanup(func() { s.Close() })
	return s
}

// openChurnSystem opens a fresh openChurn system in dir and publishes
// Mini.
func openChurnSystem(t *testing.T, dir string) *System {
	t.Helper()
	s := openChurn(t, dir, nil)
	if _, err := s.Publish(buildImage(t, builder.New(catalog.NewUniverse()), "Mini")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	return s
}

// removeAndCompact deletes Mini and compacts, failing unless the
// compaction really retired the segments the base lived in.
func removeAndCompact(s *System) error {
	if err := s.Remove("Mini"); err != nil {
		return err
	}
	st, err := s.Compact()
	if err == nil && st.SegmentsCompacted == 0 {
		err = fmt.Errorf("compaction retired no segment (%+v); the test never opened the window", st)
	}
	return err
}

// TestRetrievedImageSurvivesBaseCompaction pins the lifetime of a
// caller-held image: once Retrieve has returned, removing the VMI and
// compacting its base segment away must not invalidate the image.
func TestRetrievedImageSurvivesBaseCompaction(t *testing.T) {
	s := openChurnSystem(t, t.TempDir())
	var want bytes.Buffer
	if _, _, err := s.RetrieveTo(&want, "Mini"); err != nil {
		t.Fatal(err)
	}
	img, _, err := s.Retrieve("Mini")
	if err != nil {
		t.Fatal(err)
	}
	if err := removeAndCompact(s); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if _, err := img.Disk.WriteTo(&got); err != nil {
		t.Fatalf("image held across remove + compact is unreadable: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("image held across remove + compact changed: %d bytes, want %d", got.Len(), want.Len())
	}
}

// TestStreamSurvivesMidStreamCompaction is the streaming variant, swept:
// RetrieveTo (and AssembleTo, the server's assemble path) is parked at
// each of its file-system calls and writes to its caller while Mini is
// removed and its base segments compacted away. Parked while it opens its blobs, under the view
// lock, it makes the removal wait; parked after, mid-body, it lets it
// finish, and the stream must still deliver the pre-removal bytes.
func TestStreamSurvivesMidStreamCompaction(t *testing.T) {
	for _, tc := range []struct {
		name   string
		stream func(s *System, w io.Writer) error
	}{
		{"RetrieveTo", func(s *System, w io.Writer) error {
			_, _, err := s.RetrieveTo(w, "Mini")
			return err
		}},
		{"AssembleTo", func(s *System, w io.Writer) error {
			_, _, err := s.AssembleTo(w, "Mini", nil, "")
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Each trial starts from a copy of the closed store.
			template := t.TempDir()
			ref := openChurnSystem(t, template)
			var want bytes.Buffer
			if err := tc.stream(ref, &want); err != nil {
				t.Fatal(err)
			}
			if err := ref.Close(); err != nil {
				t.Fatal(err)
			}
			states := map[string][]byte{"mini": want.Bytes()}
			checkReaderHolds(t, fsxtest.PauseSweep(t, []string{"mini"}, nil, viewWaits, func(t *testing.T, p *fsxtest.Pause) (fsxtest.Party, fsxtest.Party) {
				s := openChurn(t, fsxtest.CopyDir(t, template), p.FS(fsx.OS))
				return func() (string, error) {
						var got bytes.Buffer
						err := tc.stream(s, p.Writer(&got))
						return namedState(got.Bytes(), err, states)
					}, func() (string, error) {
						return "", removeAndCompact(s)
					}
			}))
		})
	}
}
