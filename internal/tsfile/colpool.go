package tsfile

import (
	"math"

	"m4lsm/internal/slicepool"
)

// Decoded columns are pooled by size class. A column a chunk file load
// decodes is read by exactly one query, which hands it back through
// Reader.Recycle when it ends (storage.ChunkSource states the ownership
// rule); the next decode of a similar count takes its destination from the
// pool instead of allocating and zeroing a fresh one. Under the race
// detector a recycled timestamp column reads math.MinInt64, a value column
// NaN.
var (
	timeCols  = slicepool.Pool[int64]{Poison: math.MinInt64}
	valueCols = slicepool.Pool[float64]{Poison: math.NaN()}
)
