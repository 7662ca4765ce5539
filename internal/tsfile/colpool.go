package tsfile

import (
	"math"
	"math/bits"
	"sync"
	"unsafe"
)

// Decoded columns are pooled by size class. A column from an uncached load
// is read by exactly one query, which hands it back through Reader.Recycle
// when it ends (storage.ChunkSource states the ownership rule); the next
// decode of a similar count takes its destination from the pool instead of
// allocating and zeroing a fresh one.
//
// A class is a capacity m·2^e with m in 5..8, four classes per octave, so a
// pooled column wastes at most a quarter of its capacity (a 1000-point
// chunk's column has capacity 1024). Columns above maxPooled points are
// neither pooled nor rounded up.
const (
	maxPooledExp = 17
	maxPooled    = 8 << maxPooledExp // points
	numClasses   = 8*(maxPooledExp+1) + 1
)

// sizeClass returns the class of an n-point column (0 < n <= maxPooled)
// and the capacity every column of that class has.
func sizeClass(n int) (class, size int) {
	e := max(0, bits.Len(uint(n-1))-3)
	m := (n-1)>>e + 1
	return e*8 + m, m << e
}

// columnPool recycles columns of one element type. Each class holds
// pointers to the first element of class-sized backing arrays, so neither
// Get nor Put allocates.
type columnPool[T int64 | float64] struct {
	classes [numClasses]sync.Pool
}

var (
	timeCols  columnPool[int64]
	valueCols columnPool[float64]
)

// get returns an n-element column. Its contents are unspecified: the
// decoder overwrites every element.
func (p *columnPool[T]) get(n int) []T {
	if n <= 0 || n > maxPooled {
		return make([]T, n)
	}
	class, size := sizeClass(n)
	if first, ok := p.classes[class].Get().(*T); ok {
		return unsafe.Slice(first, size)[:n]
	}
	return make([]T, n, size)
}

// put pools col for a later get. A column whose capacity is not a class
// size did not come from get and is left to the collector.
func (p *columnPool[T]) put(col []T) {
	c := cap(col)
	if c == 0 || c > maxPooled {
		return
	}
	class, size := sizeClass(c)
	if size != c {
		return
	}
	col = col[:c]
	if poisonRecycled {
		poison(col)
	}
	p.classes[class].Put(&col[0])
}

// poisonTime is what a recycled timestamp column reads as under the race
// detector; a recycled value column reads NaN.
const poisonTime = -1 << 63

// poison overwrites a recycled column, so that a read after its query
// handed it back shows up as a wrong answer instead of passing unnoticed.
func poison[T int64 | float64](col []T) {
	switch c := any(col).(type) {
	case []int64:
		for i := range c {
			c[i] = poisonTime
		}
	case []float64:
		for i := range c {
			c[i] = math.NaN()
		}
	}
}
