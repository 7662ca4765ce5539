//go:build race

package tsfile

// poisonRecycled: race-detector builds (go test -race, which make check
// runs) poison every column handed back through Reader.Recycle.
const poisonRecycled = true
