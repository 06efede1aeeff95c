package pkgfmt

import (
	"archive/tar"
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
)

// PackTar assembles files into an uncompressed tar archive, sorted by path
// for determinism. It is used for user-data archives, which the repository
// stores verbatim (unlike binary packages, which are compressed).
func PackTar(files []File) ([]byte, error) {
	sorted := append([]File(nil), files...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })
	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	for _, f := range sorted {
		if !strings.HasPrefix(f.Path, "/") {
			return nil, fmt.Errorf("pkgfmt: tar path %q not absolute", f.Path)
		}
		hdr := &tar.Header{Name: f.Path, Mode: 0644, Size: int64(len(f.Data))}
		if err := tw.WriteHeader(hdr); err != nil {
			return nil, err
		}
		if _, err := tw.Write(f.Data); err != nil {
			return nil, err
		}
	}
	if err := tw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnpackTar decodes an archive produced by PackTar. The archive is not
// compressed, so no member holds more bytes than the archive: a member's
// size claim is believed up to the archive's length.
func UnpackTar(blob []byte) ([]File, error) {
	tr := tar.NewReader(bytes.NewReader(blob))
	var files []File
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("pkgfmt: corrupt tar: %w", err)
		}
		data, err := readMember(tr, hdr.Size, int64(len(blob)))
		if err != nil {
			return nil, fmt.Errorf("pkgfmt: read tar member %q: %w", hdr.Name, err)
		}
		files = append(files, File{Path: hdr.Name, Data: data})
	}
	return files, nil
}
