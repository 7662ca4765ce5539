//go:build !race

package tsfile

// poisonRecycled: ordinary builds pool recycled columns as they are.
const poisonRecycled = false
