//go:build race

package viz

// Under the race detector sync.Pool drops items at random, so allocation
// counts that rely on a warm pool do not hold.
func init() { raceEnabled = true }
