package slicepool

import (
	"math"
	"testing"
)

// TestSizeClasses: every pooled length maps to a class whose capacity holds
// it with at most a quarter to spare, a class capacity is its own class,
// and the classes fit the pool's table.
func TestSizeClasses(t *testing.T) {
	prev := 0
	for n := 1; n <= maxPooled; n += 1 + n/97 {
		class, size := sizeClass(n)
		if size < n || n > 8 && 4*size > 5*n+4 {
			t.Fatalf("length %d: class capacity %d", n, size)
		}
		if c2, s2 := sizeClass(size); c2 != class || s2 != size {
			t.Fatalf("capacity %d: class %d/%d, want %d/%d", size, c2, s2, class, size)
		}
		if class < prev || class >= numClasses {
			t.Fatalf("length %d: class %d after %d (table of %d)", n, class, prev, numClasses)
		}
		prev = class
	}
	if _, size := sizeClass(1000); size != 1024 {
		t.Errorf("a 1000-element slice has capacity %d, want 1024", size)
	}
}

// TestPutPoisons: under the race detector a slice handed back reads as the
// pool's Poison in every element, its capacity included; in ordinary
// builds it is pooled as it is.
func TestPutPoisons(t *testing.T) {
	p := Pool[float64]{Poison: math.NaN()}
	s := p.Get(1000)
	for i := range s {
		s[i] = float64(i)
	}
	p.Put(s[:10])
	for i, v := range s[:cap(s)] {
		if poisoning != math.IsNaN(v) {
			t.Fatalf("element %d after Put: %v (poisoning %v)", i, v, poisoning)
		}
	}
}
