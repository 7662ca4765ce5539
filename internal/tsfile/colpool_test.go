package tsfile

import (
	"math"
	"slices"
	"testing"
)

// raceEnabled: see race_test.go.
var raceEnabled bool

// TestSizeClasses: a pooled column holds its count with at most a quarter
// to spare, and a column of a class capacity gets exactly that capacity
// (slicepool's own tests pin the class table).
func TestSizeClasses(t *testing.T) {
	for n := 1; n <= 1<<16; n += 1 + n/97 {
		ts := timeCols.Get(n)
		if size := cap(ts); size < n || n > 8 && 4*size > 5*n+4 {
			t.Fatalf("count %d: column capacity %d", n, size)
		}
		if vs := valueCols.Get(cap(ts)); cap(vs) != cap(ts) {
			t.Fatalf("capacity %d: a column of that count has capacity %d", cap(ts), cap(vs))
		}
		timeCols.Put(ts)
	}
	if size := cap(timeCols.Get(1000)); size != 1024 {
		t.Errorf("a 1000-point column has capacity %d, want 1024", size)
	}
}

// TestRecycledColumnsArePoisoned: under the race detector (make check's
// -race pass) a recycled column is overwritten before it is pooled — NaN
// values and math.MinInt64 timestamps — so a query that reads a column
// after handing it back gets a wrong answer, which difftest and the
// operator tests report. This test is that read, done on purpose.
func TestRecycledColumnsArePoisoned(t *testing.T) {
	if !raceEnabled {
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
		if ts[i] != math.MinInt64 || !math.IsNaN(vs[i]) {
			t.Fatalf("point %d after Recycle: (%d, %v), want (%d, NaN)", i, ts[i], vs[i], int64(math.MinInt64))
		}
	}
}

// TestRecycledLoadAllocatesNothing: a load whose columns the previous load
// recycled decodes into them, allocating neither column, and decodes the
// same chunk bit for bit.
func TestRecycledLoadAllocatesNothing(t *testing.T) {
	if raceEnabled {
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
