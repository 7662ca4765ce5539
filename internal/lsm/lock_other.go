//go:build !(darwin || dragonfly || freebsd || linux || netbsd || openbsd)

package lsm

import "os"

// lockDir takes no lock where the standard library has no flock (Windows,
// Solaris, Plan 9, js/wasm): there, only one process may open a directory.
func lockDir(string) (*os.File, error) { return nil, nil }
