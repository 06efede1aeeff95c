// Package atomicfile provides the one crash-safe file-replace idiom the
// persistence layer depends on, so every committed image (blob index,
// metadata database) goes through identical, jointly-tested machinery.
package atomicfile

import (
	"fmt"
	"os"
	"path/filepath"

	"expelliarmus/internal/fsx"
)

// Write atomically replaces path with data on fsys: the bytes are written
// to path+".tmp", fsynced, renamed over path, and the parent directory is
// fsynced so the rename itself is durable. A reader (or a post-crash
// reopen) sees either the previous content or the new content, never a
// mixture; a leftover .tmp file after a crash is inert.
func Write(fsys fsx.FS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC)
	if err != nil {
		return fmt.Errorf("atomicfile: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("atomicfile: write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("atomicfile: fsync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("atomicfile: close %s: %w", tmp, err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return fmt.Errorf("atomicfile: %w", err)
	}
	return fsys.SyncDir(filepath.Dir(path))
}
