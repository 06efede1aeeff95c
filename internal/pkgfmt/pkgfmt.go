// Package pkgfmt implements the binary package format (the ".deb" analogue)
// used throughout the reproduction: a gzip-compressed tar archive holding a
// control stanza and the package's files. The Expelliarmus publish path
// recreates these binaries from installed files (dpkg-repack style,
// Sec. V-3) and the retrieval path extracts and installs them from the
// local repository (Sec. V-4).
//
// Because the payload is genuinely gzip-compressed with the standard
// library, stored package sizes are smaller than installed sizes exactly as
// the paper describes ("the installation size ... is always larger than
// the size of a software packaged in the .deb or .rpm format").
package pkgfmt

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"expelliarmus/internal/pkgmeta"
)

// File is one file installed by a package. Paths are absolute guest paths.
type File struct {
	Path string
	Data []byte
}

// controlName is the archive member holding the control stanza.
const controlName = "control"

// dataPrefix prefixes data members; the remainder is the absolute path.
const dataPrefix = "data"

// Build assembles a binary package from metadata and files. Files are
// stored sorted by path, making the output deterministic.
func Build(p pkgmeta.Package, files []File) ([]byte, error) {
	if p.Name == "" {
		return nil, fmt.Errorf("pkgfmt: package has no name")
	}
	sorted := append([]File(nil), files...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })

	var buf bytes.Buffer
	gz, err := gzip.NewWriterLevel(&buf, gzip.BestSpeed)
	if err != nil {
		return nil, err
	}
	tw := tar.NewWriter(gz)

	control := pkgmeta.AppendControl(nil, p)
	if err := writeMember(tw, controlName, control); err != nil {
		return nil, err
	}
	for _, f := range sorted {
		if !strings.HasPrefix(f.Path, "/") {
			return nil, fmt.Errorf("pkgfmt: %s: file path %q not absolute", p.Name, f.Path)
		}
		if err := writeMember(tw, dataPrefix+f.Path, f.Data); err != nil {
			return nil, err
		}
	}
	if err := tw.Close(); err != nil {
		return nil, err
	}
	if err := gz.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func writeMember(tw *tar.Writer, name string, data []byte) error {
	hdr := &tar.Header{
		Name: name,
		Mode: 0644,
		Size: int64(len(data)),
	}
	if err := tw.WriteHeader(hdr); err != nil {
		return err
	}
	_, err := tw.Write(data)
	return err
}

// maxMemberPrealloc is the most a member's size claim allocates in Extract
// before its bytes arrive. A gzip'd archive can claim far more than its own
// length, so the claim is believed only this far; the catalog's largest
// file is 80 KiB, and a larger member still decodes, growing as it reads.
const maxMemberPrealloc = 1 << 20

// readMember reads the current member of tr, whose header claims size
// bytes, into a buffer made for the claim up to limit, appending whatever
// arrives past limit. A member shorter than its claim fails with
// io.ErrUnexpectedEOF, so a lying header costs its archive real bytes.
func readMember(tr *tar.Reader, size, limit int64) ([]byte, error) {
	data := make([]byte, min(size, limit))
	if _, err := io.ReadFull(tr, data); err != nil {
		return nil, err
	}
	if size <= limit {
		return data, nil
	}
	rest, err := io.ReadAll(tr)
	return append(data, rest...), err
}

// extractor is the reusable state of one Extract: a gzip.Reader, whose
// decompressor is costly to build, over a bytes.Reader. Reset reuses both.
type extractor struct {
	br bytes.Reader
	gz gzip.Reader
}

var extractors = sync.Pool{New: func() any { return new(extractor) }}

// Extract decodes a binary package into its metadata and files.
func Extract(blob []byte) (pkgmeta.Package, []File, error) {
	var p pkgmeta.Package
	x := extractors.Get().(*extractor)
	defer func() {
		x.br.Reset(nil)
		extractors.Put(x)
	}()
	x.br.Reset(blob)
	if err := x.gz.Reset(&x.br); err != nil {
		return p, nil, fmt.Errorf("pkgfmt: not a package (gzip): %w", err)
	}
	tr := tar.NewReader(&x.gz)
	var files []File
	sawControl := false
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return p, nil, fmt.Errorf("pkgfmt: corrupt archive: %w", err)
		}
		data, err := readMember(tr, hdr.Size, maxMemberPrealloc)
		if err != nil {
			return p, nil, fmt.Errorf("pkgfmt: read member %q: %w", hdr.Name, err)
		}
		switch {
		case hdr.Name == controlName:
			p, err = pkgmeta.ParseControl(string(data))
			if err != nil {
				return p, nil, err
			}
			sawControl = true
		case strings.HasPrefix(hdr.Name, dataPrefix+"/"):
			files = append(files, File{
				Path: strings.TrimPrefix(hdr.Name, dataPrefix),
				Data: data,
			})
		default:
			return p, nil, fmt.Errorf("pkgfmt: unexpected member %q", hdr.Name)
		}
	}
	if !sawControl {
		return p, nil, fmt.Errorf("pkgfmt: archive has no control member")
	}
	return p, files, nil
}
