//go:build race

package groupby

// Under the race detector sync.Pool drops items at random, so allocation
// figures that rely on a warm pool do not hold.
func init() { raceEnabled = true }
