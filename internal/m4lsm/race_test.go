//go:build race

package m4lsm

// Under the race detector sync.Pool drops items at random, so allocation
// figures that rely on a warm column pool do not hold.
func init() { raceEnabled = true }
