//go:build race

package tsfile

// Under the race detector recycled columns are poisoned and sync.Pool
// drops items at random.
func init() { raceEnabled = true }
