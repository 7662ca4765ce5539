//go:build race

package slicepool

// poisoning: race-detector builds (go test -race, which make check runs)
// poison every slice handed back through Put.
const poisoning = true
