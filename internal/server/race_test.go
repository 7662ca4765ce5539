//go:build race

package server

// Under the race detector sync.Pool drops items at random, so allocation
// figures that rely on warm pools do not hold, and released outputs are
// poisoned.
func init() { raceEnabled = true }
