package core

import (
	"bytes"
	"io"
	"testing"

	"expelliarmus/internal/builder"
	"expelliarmus/internal/catalog"
	"expelliarmus/internal/vmirepo"
)

// openChurnSystem opens a disk-backed system whose blob segments roll at
// 256 KiB, so a published base spans segments that removing it leaves
// wholly dead — the next Compact retires them — and publishes Mini.
func openChurnSystem(t *testing.T) *System {
	t.Helper()
	repo, err := vmirepo.OpenAtOpts(t.TempDir(), testDev, vmirepo.OpenOptions{BlobMaxSegmentBytes: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSystemWithRepo(repo, testDev, Options{})
	t.Cleanup(func() { s.Close() })
	if _, err := s.Publish(buildImage(t, builder.New(catalog.NewUniverse()), "Mini")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	return s
}

// removeAndCompact deletes Mini and compacts, failing the test unless the
// compaction really retired the segments the base lived in.
func removeAndCompact(t *testing.T, s *System) {
	t.Helper()
	if err := s.Remove("Mini"); err != nil {
		t.Fatal(err)
	}
	st, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if st.SegmentsCompacted == 0 {
		t.Fatalf("compaction retired no segment (%+v); the test never opened the window", st)
	}
}

// TestRetrievedImageSurvivesBaseCompaction pins the lifetime of a
// caller-held image: once Retrieve has returned, removing the VMI and
// compacting its base segment away must not invalidate the image.
func TestRetrievedImageSurvivesBaseCompaction(t *testing.T) {
	s := openChurnSystem(t)
	var want bytes.Buffer
	if _, _, err := s.RetrieveTo(&want, "Mini"); err != nil {
		t.Fatal(err)
	}
	img, _, err := s.Retrieve("Mini")
	if err != nil {
		t.Fatal(err)
	}
	removeAndCompact(t, s)
	var got bytes.Buffer
	if _, err := img.Disk.WriteTo(&got); err != nil {
		t.Fatalf("image held across remove + compact is unreadable: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("image held across remove + compact changed: %d bytes, want %d", got.Len(), want.Len())
	}
}

// churnSink triggers a remove + compaction of the image being streamed
// right after the stream's first write.
type churnSink struct {
	bytes.Buffer
	t     *testing.T
	s     *System
	fired bool
}

func (c *churnSink) Write(p []byte) (int, error) {
	n, err := c.Buffer.Write(p)
	if !c.fired {
		c.fired = true
		removeAndCompact(c.t, c.s)
	}
	return n, err
}

// TestStreamSurvivesMidStreamCompaction is the streaming variant: the
// base segment is compacted away while RetrieveTo (and AssembleTo, the
// server's assemble path) is mid-body, and the stream must still deliver
// the pre-removal bytes.
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
			s := openChurnSystem(t)
			var want bytes.Buffer
			if err := tc.stream(s, &want); err != nil {
				t.Fatal(err)
			}
			got := &churnSink{t: t, s: s}
			if err := tc.stream(s, got); err != nil {
				t.Fatalf("stream racing remove + compact failed: %v", err)
			}
			if !got.fired {
				t.Fatal("sink never triggered the compaction")
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("stream racing remove + compact changed: %d bytes, want %d", got.Len(), want.Len())
			}
		})
	}
}
