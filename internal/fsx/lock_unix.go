//go:build unix

package fsx

import (
	"fmt"
	"os"
	"path/filepath"
	"syscall"
)

// lockDir takes an exclusive flock on dir/lock. The lock dies with the file
// descriptor, so a crashed process never leaves a stale lock behind.
func lockDir(dir string) (func() error, error) {
	f, err := os.OpenFile(filepath.Join(dir, "lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("fsx: open lock file: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("fsx: %s is in use by another instance: %w", dir, err)
	}
	return f.Close, nil
}
