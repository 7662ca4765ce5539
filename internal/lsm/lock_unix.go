//go:build darwin || dragonfly || freebsd || linux || netbsd || openbsd

package lsm

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
)

// lockDir takes dir's exclusive lock, on its LOCK file as in LevelDB and
// RocksDB, without waiting. Closing the file releases it, as does the
// process's exit, however it ends.
func lockDir(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o644)
	if err == nil {
		if err = syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
			f.Close()
		}
	}
	if errors.Is(err, syscall.EWOULDBLOCK) {
		return nil, fmt.Errorf("%w: %s", ErrLocked, dir)
	}
	return f, err
}
