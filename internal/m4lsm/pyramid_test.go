package m4lsm

import (
	"context"
	"math/rand"
	"testing"

	"m4lsm/internal/lsm"
	"m4lsm/internal/m4"
	"m4lsm/internal/m4udf"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
)

const (
	alignedSeries = "root.aligned"
	alignedPoints = 1 << 17
)

// alignedEngine writes a 2^17-point random walk at t = 0, 1, ... into an
// lsm engine with the pyramid on, in 4096-point batches, and flushes it, so
// every power-of-two-aligned window is answered from pyramid cells alone.
func alignedEngine(tb testing.TB) *lsm.Engine {
	tb.Helper()
	e, err := lsm.Open(lsm.Options{Dir: tb.TempDir(), DisableWAL: true})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { e.Close() })
	rng := rand.New(rand.NewSource(1))
	v := 0.0
	for off := 0; off < alignedPoints; off += 4096 {
		batch := make(series.Series, 4096)
		for i := range batch {
			v += rng.Float64()*2 - 1
			batch[i] = series.Point{T: int64(off + i), V: v}
		}
		if err := e.Write(alignedSeries, batch...); err != nil {
			tb.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		tb.Fatal(err)
	}
	return e
}

func alignedSnapshot(tb testing.TB, e *lsm.Engine, q m4.Query) *storage.Snapshot {
	tb.Helper()
	snap, err := e.Snapshot(alignedSeries, q.Range())
	if err != nil {
		tb.Fatal(err)
	}
	return snap
}

// TestAlignedWindowBuildsNoChunkState: on a cell-aligned window every span
// is its folded cells. The empty boundary fragments attach no chunk, so the
// plan builds no chunk state and no fragment task, nothing counts as
// pruned, and the answer is still M4-UDF's.
func TestAlignedWindowBuildsNoChunkState(t *testing.T) {
	e := alignedEngine(t)
	for _, q := range []m4.Query{
		{Tqs: 0, Tqe: alignedPoints, W: 1024},
		{Tqs: 1 << 14, Tqe: 1<<14 + 1<<16, W: 64},
	} {
		p := newSeriesPlan(context.Background(), alignedSnapshot(t, e, q), q, Options{}, nil)
		if len(p.op.states) != 0 || len(p.pyrWork) != 0 {
			t.Errorf("%+v: plan built %d chunk states and %d fragment tasks; want none", q, len(p.op.states), len(p.pyrWork))
		}
		snap := alignedSnapshot(t, e, q)
		got, err := Compute(snap, q)
		if err != nil {
			t.Fatal(err)
		}
		st := snap.Stats.Load()
		if st.ChunksPruned != 0 || st.PyramidSpans != int64(q.W) || st.ChunksLoaded != 0 || st.TimeBlocksLoaded != 0 {
			t.Errorf("%+v: pruned %d, pyramid spans %d of %d, loads %d+%d; want 0, all, 0+0",
				q, st.ChunksPruned, st.PyramidSpans, q.W, st.ChunksLoaded, st.TimeBlocksLoaded)
		}
		want, err := m4udf.Compute(alignedSnapshot(t, e, q), q)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%+v span %d: pyramid %v, M4-UDF %v", q, i, got[i], want[i])
			}
		}
	}
}

// TestPyramidPlanAllocsDoNotScaleWithSpans: answering a cell-aligned window
// from the pyramid allocates per query, not per span.
func TestPyramidPlanAllocsDoNotScaleWithSpans(t *testing.T) {
	e := alignedEngine(t)
	allocs := func(w int) float64 {
		q := m4.Query{Tqs: 0, Tqe: alignedPoints, W: w}
		snap := alignedSnapshot(t, e, q)
		return testing.AllocsPerRun(10, func() {
			if _, err := Compute(snap, q); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(64), allocs(1024)
	if many > few+8 || many > 100 {
		t.Errorf("allocations per query: %v at w=64, %v at w=1024; want at most 8 more for 16x the spans, and at most 100", few, many)
	}
}
