package m4lsm

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"m4lsm/internal/lsm"
	"m4lsm/internal/m4"
	"m4lsm/internal/m4udf"
	"m4lsm/internal/mergeread"
	"m4lsm/internal/reprops"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
	"m4lsm/internal/testutil"
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
// plan builds no chunk state and no list task, nothing counts as pruned,
// and the answer is still M4-UDF's.
func TestAlignedWindowBuildsNoChunkState(t *testing.T) {
	e := alignedEngine(t)
	for _, q := range []m4.Query{
		{Tqs: 0, Tqe: alignedPoints, W: 1024},
		{Tqs: 1 << 14, Tqe: 1<<14 + 1<<16, W: 64},
	} {
		p := newSeriesPlan(context.Background(), alignedSnapshot(t, e, q), q, Options{}, nil)
		if len(p.op.states) != 0 || len(p.work) != 0 {
			t.Errorf("%+v: plan built %d chunk states and %d list tasks; want none", q, len(p.op.states), len(p.work))
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

// TestMinMaxFragmentsRunOnlyMinMaxKinds: on a window that is not
// cell-aligned every span is two boundary fragments around its cells, and
// a fragment runs the operator's own rest kinds. MinMax needs no LP, so it
// makes none of LP's boundary probes, and its points are still
// reprops.Reduce's over the merged series. M4's counters on the window are
// pinned, so the cheaper MinMax is not bought by a changed M4.
func TestMinMaxFragmentsRunOnlyMinMaxKinds(t *testing.T) {
	e := alignedEngine(t)
	q := m4.Query{Tqs: 37, Tqe: alignedPoints - 91, W: 500}
	opts := Options{}

	m4Snap := alignedSnapshot(t, e, q)
	if _, err := ComputeContext(context.Background(), m4Snap, q, opts); err != nil {
		t.Fatal(err)
	}
	m4st := m4Snap.Stats.Load()
	if m4st.ChunksLoaded != 140 || m4st.TimeBlocksLoaded != 140 || m4st.IndexProbes != 1752 || m4st.CandidateRounds != 8778 {
		t.Errorf("M4: %d loads, %d time blocks, %d probes, %d rounds; want 140, 140, 1752, 8778",
			m4st.ChunksLoaded, m4st.TimeBlocksLoaded, m4st.IndexProbes, m4st.CandidateRounds)
	}

	minmax := reprops.Spec{Kind: reprops.KindMinMax}
	snap := alignedSnapshot(t, e, q)
	outs, err := ReduceMultiContext(context.Background(), []*storage.Snapshot{snap}, q, minmax, opts)
	if err != nil {
		t.Fatal(err)
	}
	st := snap.Stats.Load()
	if st.PyramidSpans != int64(q.W) {
		t.Errorf("minmax: %d of %d spans from the pyramid; want all", st.PyramidSpans, q.W)
	}
	if st.IndexProbes >= m4st.IndexProbes {
		t.Errorf("minmax made %d index probes, M4 %d; want fewer (no LP on fragments)", st.IndexProbes, m4st.IndexProbes)
	}
	merged, err := mergeread.Merge(alignedSnapshot(t, e, q), q.Range())
	if err != nil {
		t.Fatal(err)
	}
	want, err := reprops.Reduce(minmax, q, merged)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(outs[0], want) {
		t.Fatalf("minmax over fragments and cells differs from reprops.Reduce:\ngot  %v\nwant %v", outs[0], want)
	}
}

// stubPyramid plans one span with one precomputed cell.
type stubPyramid struct {
	span int
	plan storage.PyramidSpan
	cell m4.Aggregate
}

func (s stubPyramid) PlanSpans(q m4.Query, spans []storage.PyramidSpan, aggs []m4.Aggregate) int {
	spans[s.span], aggs[s.span] = s.plan, s.cell
	return 1
}

// TestStrictErrorNamesLowestSpan: a STRICT query over two unreadable
// chunks, one in a pyramid span's left fragment and one in a plain span,
// both of whose FP needs a timestamp load, fails on the first failing task
// in (series, list, kind) order, so its error names the lower span.
func TestStrictErrorNamesLowestSpan(t *testing.T) {
	q := m4.Query{Tqs: 0, Tqe: 40, W: 4}
	mem := testutil.Chunks{}
	src := &failingSource{inner: mem, bad: map[storage.Version]bool{1: true, 2: true}, err: errors.New("disk gone")}
	snap := &storage.Snapshot{SeriesID: "s", Stats: &storage.Stats{}, Warnings: &storage.Warnings{}}
	for ver, data := range []series.Series{
		{{T: 5, V: 1}, {T: 11, V: 2}, {T: 15, V: 3}},
		{{T: 25, V: 4}, {T: 35, V: 5}},
	} {
		meta, err := mem.Add(storage.Version(ver+1), data)
		if err != nil {
			t.Fatal(err)
		}
		snap.Chunks = append(snap.Chunks, storage.NewChunkRef(meta, src))
	}
	cell := series.Point{T: 15, V: 3}
	snap.Pyramid = stubPyramid{span: 1, plan: storage.PyramidSpan{Lo: 12, Hi: 18, Cells: 1},
		cell: m4.Aggregate{First: cell, Last: cell, Bottom: cell, Top: cell}}
	_, err := ComputeContext(context.Background(), snap, q, Options{Strict: true})
	if err == nil || !strings.HasPrefix(err.Error(), "m4lsm: span 1: ") || !strings.Contains(err.Error(), "disk gone") {
		t.Fatalf("strict query over unreadable chunks: error %v, want span 1's", err)
	}
}
