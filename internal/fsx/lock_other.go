//go:build !unix

package fsx

// lockDir is a no-op on platforms without flock; single-instance use is
// the caller's responsibility there.
func lockDir(dir string) (func() error, error) {
	return func() error { return nil }, nil
}
