package tsfile

import (
	"math"
	"slices"
	"testing"
)

// TestSizeClasses: every pooled count maps to a class whose capacity holds
// it with at most a quarter to spare, a class capacity is its own class,
// and the classes fit the pool's table.
func TestSizeClasses(t *testing.T) {
	prev := 0
	for n := 1; n <= maxPooled; n += 1 + n/97 {
		class, size := sizeClass(n)
		if size < n || n > 8 && 4*size > 5*n+4 {
			t.Fatalf("count %d: class capacity %d", n, size)
		}
		if c2, s2 := sizeClass(size); c2 != class || s2 != size {
			t.Fatalf("capacity %d: class %d/%d, want %d/%d", size, c2, s2, class, size)
		}
		if class < prev || class >= numClasses {
			t.Fatalf("count %d: class %d after %d (table of %d)", n, class, prev, numClasses)
		}
		prev = class
	}
	if _, size := sizeClass(1000); size != 1024 {
		t.Errorf("a 1000-point column has capacity %d, want 1024", size)
	}
}

// TestRecycledColumnsArePoisoned: under the race detector (make check's
// -race pass) a recycled column is overwritten before it is pooled — NaN
// values and the poisonTime sentinel — so a query that reads a column
// after handing it back gets a wrong answer, which difftest and the
// operator tests report. This test is that read, done on purpose.
func TestRecycledColumnsArePoisoned(t *testing.T) {
	if !poisonRecycled {
		t.Skip("recycled columns are poisoned only in race-detector builds")
	}
	r, meta := openBenchChunk(t)
	cols, err := r.ReadChunk(meta)
	if err != nil {
		t.Fatal(err)
	}
	ts, vs := cols.Times(), cols.Values()
	r.Recycle(ts, vs)
	for i := range ts {
		if ts[i] != poisonTime || !math.IsNaN(vs[i]) {
			t.Fatalf("point %d after Recycle: (%d, %v), want (%d, NaN)", i, ts[i], vs[i], int64(poisonTime))
		}
	}
}

// TestRecycledLoadAllocatesNothing: a load whose columns the previous load
// recycled decodes into them, allocating neither column, and decodes the
// same chunk bit for bit.
func TestRecycledLoadAllocatesNothing(t *testing.T) {
	if poisonRecycled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	r, meta := openBenchChunk(t)
	want, err := r.ReadChunk(meta)
	if err != nil {
		t.Fatal(err)
	}
	wantTs, wantVs := slices.Clone(want.Times()), slices.Clone(want.Values())
	r.Recycle(want.Times(), want.Values())
	// One spare allocation is allowed for a pool refilling after a GC.
	if n := testing.AllocsPerRun(50, func() {
		cols, err := r.ReadChunk(meta)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(cols.Times(), wantTs) || !slices.Equal(cols.Values(), wantVs) {
			t.Fatal("a load into recycled columns decoded another chunk")
		}
		r.Recycle(cols.Times(), cols.Values())
	}); n > 1 {
		t.Errorf("recycled ReadChunk: %v allocs/op, want <= 1", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		ts, err := r.ReadTimes(meta)
		if err != nil {
			t.Fatal(err)
		}
		vs, err := r.ReadValues(meta)
		if err != nil {
			t.Fatal(err)
		}
		r.Recycle(ts, vs)
	}); n > 1 {
		t.Errorf("recycled ReadTimes+ReadValues: %v allocs/op, want <= 1", n)
	}
}

// TestRecycleIgnoresForeignColumns: a column whose capacity is no class
// size did not come from the pool and is not pooled; nil and empty columns
// are ignored.
func TestRecycleIgnoresForeignColumns(t *testing.T) {
	r, _ := openBenchChunk(t)
	ts := make([]int64, 1000)
	vs := make([]float64, 1000)
	r.Recycle(ts, vs)
	r.Recycle(nil, nil)
	r.Recycle([]int64{}, []float64{})
	for i := range ts {
		if ts[i] != 0 || vs[i] != 0 {
			t.Fatalf("a foreign column was recycled: point %d is (%d, %v)", i, ts[i], vs[i])
		}
	}
}
