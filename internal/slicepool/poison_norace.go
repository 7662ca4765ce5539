//go:build !race

package slicepool

// poisoning: ordinary builds pool what Put is given as it is.
const poisoning = false
