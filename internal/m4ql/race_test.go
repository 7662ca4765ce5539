//go:build race

package m4ql

// Race-detector builds poison what is handed back to a pool.
func init() { raceEnabled = true }
