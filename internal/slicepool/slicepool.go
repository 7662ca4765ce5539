// Package slicepool recycles slices by size class. A slice that one
// request or query owns from start to end — a decoded chunk column, an
// operator's plan table, the points a query returns, a canvas — goes back
// through Put when its owner is done, and the next Get of a similar length
// takes it instead of allocating and zeroing a fresh one. Slices nobody
// hands back are left to the collector, as are the pool's contents once
// it has collected twice (sync.Pool).
package slicepool

import (
	"math/bits"
	"sync"
	"unsafe"
)

// A class is a capacity m·2^e with m in 5..8, four classes per octave, so a
// pooled slice wastes at most a quarter of its capacity (a 1000-element
// slice has capacity 1024). Slices above maxPooled elements are neither
// pooled nor rounded up.
const (
	maxPooledExp = 17
	maxPooled    = 8 << maxPooledExp // elements
	numClasses   = 8*(maxPooledExp+1) + 1
)

// sizeClass returns the class of an n-element slice (0 < n <= maxPooled)
// and the capacity every slice of that class has.
func sizeClass(n int) (class, size int) {
	e := max(0, bits.Len(uint(n-1))-3)
	m := (n-1)>>e + 1
	return e*8 + m, m << e
}

// Pool recycles slices of one element type; the zero Pool is ready to use.
// Each class holds pointers to the first element of class-sized backing
// arrays, so neither Get nor Put allocates.
type Pool[T any] struct {
	// Poison is what every element of a slice handed to Put reads as in
	// race-detector builds, so that a read after release shows up as a
	// wrong answer instead of passing unnoticed.
	Poison  T
	classes [numClasses]sync.Pool
}

// Get returns an n-element slice. Its contents are unspecified: the caller
// overwrites, or clears, every element it reads.
func (p *Pool[T]) Get(n int) []T {
	if n <= 0 || n > maxPooled {
		return make([]T, n)
	}
	class, size := sizeClass(n)
	if first, ok := p.classes[class].Get().(*T); ok {
		return unsafe.Slice(first, size)[:n]
	}
	return make([]T, n, size)
}

// Put pools s for a later Get. The caller must own s and not read it
// again. A slice whose capacity is not a class size did not come from Get
// and is left to the collector.
func (p *Pool[T]) Put(s []T) {
	c := cap(s)
	if c == 0 || c > maxPooled {
		return
	}
	class, size := sizeClass(c)
	if size != c {
		return
	}
	s = s[:c]
	if poisoning {
		for i := range s {
			s[i] = p.Poison
		}
	}
	p.classes[class].Put(&s[0])
}
