package m4lsm

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"m4lsm/internal/m4"
	"m4lsm/internal/m4udf"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
	"m4lsm/internal/testutil"
)

// Directed edge cases for the operator beyond the randomized suites.

func TestSpanBoundaryExactHits(t *testing.T) {
	// Points landing exactly on span boundaries must group into the
	// right-hand span (half-open spans).
	snap := buildSnapshot(t, map[storage.Version]series.Series{
		1: {{T: 0, V: 1}, {T: 50, V: 2}, {T: 99, V: 3}},
	}, nil)
	q := m4.Query{Tqs: 0, Tqe: 100, W: 2} // spans [0,50) [50,100)
	got, err := Compute(snap, q)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Last.T != 0 || got[1].First.T != 50 {
		t.Errorf("boundary point in wrong span: %v | %v", got[0], got[1])
	}
}

func TestSingletonSpans(t *testing.T) {
	// One point per span, spans of width 1.
	snap := buildSnapshot(t, map[storage.Version]series.Series{
		1: {{T: 0, V: 5}, {T: 1, V: 6}, {T: 2, V: 7}},
	}, nil)
	q := m4.Query{Tqs: 0, Tqe: 3, W: 3}
	got, err := Compute(snap, q)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range got {
		if a.Empty || a.First != a.Last || a.First != a.Bottom || a.First.V != float64(5+i) {
			t.Errorf("span %d = %v", i, a)
		}
	}
}

func TestNegativeTimestamps(t *testing.T) {
	snap := buildSnapshot(t, map[storage.Version]series.Series{
		1: {{T: -100, V: 1}, {T: -50, V: -3}, {T: -10, V: 2}},
	}, []storage.Delete{{SeriesID: "s", Version: 2, Start: -60, End: -40}})
	q := m4.Query{Tqs: -120, Tqe: 0, W: 3}
	got, err := Compute(snap, q)
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, got, reference(t, snap, q), "negative timestamps")
}

func TestExtremeValues(t *testing.T) {
	big := math.MaxFloat64
	snap := buildSnapshot(t, map[storage.Version]series.Series{
		1: {{T: 1, V: -big}, {T: 2, V: big}, {T: 3, V: 0}},
		2: {{T: 2, V: math.Inf(-1)}}, // overwrites the max with -Inf
	}, nil)
	q := m4.Query{Tqs: 0, Tqe: 10, W: 1}
	got, err := Compute(snap, q)
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, got, reference(t, snap, q), "extreme values")
	if got[0].Top.V != 0 {
		t.Errorf("top = %v, want 0 after overwrite to -Inf", got[0].Top)
	}
	if got[0].Bottom.V != math.Inf(-1) {
		t.Errorf("bottom = %v", got[0].Bottom)
	}
}

func TestDeleteExactlyOneBoundary(t *testing.T) {
	// Deletes whose closed range touches exactly the candidate point.
	snap := buildSnapshot(t, map[storage.Version]series.Series{
		1: {{T: 10, V: 1}, {T: 20, V: 2}, {T: 30, V: 3}},
	}, []storage.Delete{
		{SeriesID: "s", Version: 2, Start: 10, End: 10}, // kills first
		{SeriesID: "s", Version: 3, Start: 30, End: 30}, // kills last
	})
	q := m4.Query{Tqs: 0, Tqe: 100, W: 1}
	got, err := Compute(snap, q)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].First.T != 20 || got[0].Last.T != 20 {
		t.Errorf("aggregate = %v, want only t=20 surviving", got[0])
	}
}

func TestChainedDeletesPushBoundThroughSpan(t *testing.T) {
	// Successive deletes cover the whole span: the FP bound must chain
	// across them and conclude the span is empty without loading.
	snap := buildSnapshot(t, map[storage.Version]series.Series{
		1: {{T: 0, V: 1}, {T: 10, V: 2}, {T: 20, V: 3}, {T: 30, V: 4}},
	}, []storage.Delete{
		{SeriesID: "s", Version: 2, Start: 0, End: 9},
		{SeriesID: "s", Version: 3, Start: 10, End: 19},
		{SeriesID: "s", Version: 4, Start: 20, End: 35},
	})
	q := m4.Query{Tqs: 0, Tqe: 40, W: 1}
	got, err := Compute(snap, q)
	if err != nil {
		t.Fatal(err)
	}
	if !got[0].Empty {
		t.Fatalf("aggregate = %v, want empty", got[0])
	}
	if snap.Stats.ChunksLoaded != 0 {
		t.Errorf("loads = %d; chained delete bounds should avoid loading", snap.Stats.ChunksLoaded)
	}
}

func TestDeleteLeavesGapInsideChunk(t *testing.T) {
	// Delete covers the middle; FP/LP unaffected, BP/TP must recompute.
	snap := buildSnapshot(t, map[storage.Version]series.Series{
		1: {{T: 10, V: 5}, {T: 20, V: -9}, {T: 30, V: 9}, {T: 40, V: 4}},
	}, []storage.Delete{{SeriesID: "s", Version: 2, Start: 15, End: 35}})
	q := m4.Query{Tqs: 0, Tqe: 100, W: 1}
	got, err := Compute(snap, q)
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, got, reference(t, snap, q), "gap inside chunk")
	if got[0].Bottom.V != 4 || got[0].Top.V != 5 {
		t.Errorf("aggregate = %v", got[0])
	}
}

func TestManyIdenticalValues(t *testing.T) {
	// All values equal: BP == TP, ties everywhere; any point is valid.
	data := make(series.Series, 50)
	for i := range data {
		data[i] = series.Point{T: int64(i), V: 7}
	}
	snap := buildSnapshot(t, map[storage.Version]series.Series{
		1: data[:25], 2: data[25:],
	}, nil)
	q := m4.Query{Tqs: 0, Tqe: 50, W: 4}
	got, err := Compute(snap, q)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range got {
		if a.Empty || a.Bottom.V != 7 || a.Top.V != 7 {
			t.Errorf("span %d = %v", i, a)
		}
	}
}

func TestLargeW_SparseData(t *testing.T) {
	snap := buildSnapshot(t, map[storage.Version]series.Series{
		1: {{T: 5, V: 1}, {T: 500_000, V: 2}},
	}, nil)
	q := m4.Query{Tqs: 0, Tqe: 1_000_000, W: 10_000}
	got, err := Compute(snap, q)
	if err != nil {
		t.Fatal(err)
	}
	nonEmpty := 0
	for _, a := range got {
		if !a.Empty {
			nonEmpty++
		}
	}
	if nonEmpty != 2 {
		t.Errorf("non-empty spans = %d, want 2", nonEmpty)
	}
}

func TestInterleavedHighVersionDeletesAndChunks(t *testing.T) {
	// Delete versions interleave between chunk versions: only the right
	// chunks are affected.
	snap := buildSnapshot(t, map[storage.Version]series.Series{
		1: {{T: 10, V: 1}},
		3: {{T: 10, V: 3}},
		5: {{T: 10, V: 5}},
	}, []storage.Delete{
		{SeriesID: "s", Version: 2, Start: 10, End: 10},
		{SeriesID: "s", Version: 4, Start: 10, End: 10},
	})
	q := m4.Query{Tqs: 0, Tqe: 20, W: 1}
	got, err := Compute(snap, q)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Empty || got[0].First.V != 5 {
		t.Fatalf("aggregate = %v, want v5 point to survive", got[0])
	}
}

func TestWiderRandomizedSweep(t *testing.T) {
	// A heavier configuration than the default property test: more
	// chunks, more points, wider value range, longer horizon.
	cfg := testutil.GenConfig{
		MaxChunks:      12,
		MaxChunkPoints: 60,
		MaxDeletes:     6,
		TimeHorizon:    400,
		ValueRange:     64,
	}
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed + 90_000))
		snap := testutil.RandomSnapshot(rng, cfg)
		q := m4.Query{Tqs: rng.Int63n(200), Tqe: 200 + rng.Int63n(250), W: 1 + rng.Intn(25)}
		want := reference(t, snap, q)
		got, err := Compute(snap, q)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i := range got {
			if !m4.Equivalent(got[i], want[i]) {
				t.Fatalf("seed %d span %d:\n got %v\nwant %v", seed, i, got[i], want[i])
			}
		}
	}
}

func TestMemtableStyleChunkAtTop(t *testing.T) {
	// A high-version chunk covering everything (like a memtable snapshot)
	// must dominate all representation functions.
	base := make(series.Series, 100)
	for i := range base {
		base[i] = series.Point{T: int64(i * 10), V: float64(i % 10)}
	}
	top := make(series.Series, 100)
	for i := range top {
		top[i] = series.Point{T: int64(i * 10), V: 100 + float64(i%10)}
	}
	snap := buildSnapshot(t, map[storage.Version]series.Series{1: base, 2: top}, nil)
	q := m4.Query{Tqs: 0, Tqe: 1000, W: 5}
	got, err := Compute(snap, q)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range got {
		if a.Bottom.V < 100 {
			t.Errorf("span %d bottom = %v; base chunk leaked through total overwrite", i, a.Bottom)
		}
	}
	assertEquivalent(t, got, reference(t, snap, q), "total overwrite")
}

// TestSoakEquivalence is a long randomized sweep, skipped under -short:
// thousands of chunk/delete states across three generator profiles.
func TestSoakEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped with -short")
	}
	profiles := []testutil.GenConfig{
		testutil.DefaultGenConfig,
		{MaxChunks: 10, MaxChunkPoints: 40, MaxDeletes: 12, TimeHorizon: 100, ValueRange: 10},
		{MaxChunks: 16, MaxChunkPoints: 8, MaxDeletes: 3, TimeHorizon: 24, ValueRange: 4},
	}
	for pi, cfg := range profiles {
		for seed := int64(0); seed < 1200; seed++ {
			rng := rand.New(rand.NewSource(seed + int64(pi)*1_000_000))
			snap := testutil.RandomSnapshot(rng, cfg)
			q := m4.Query{
				Tqs: rng.Int63n(cfg.TimeHorizon),
				Tqe: cfg.TimeHorizon/2 + rng.Int63n(cfg.TimeHorizon),
				W:   1 + rng.Intn(20),
			}
			if q.Tqe <= q.Tqs {
				q.Tqe = q.Tqs + 1
			}
			want := reference(t, snap, q)
			got, err := Compute(snap, q)
			if err != nil {
				t.Fatalf("profile %d seed %d: %v", pi, seed, err)
			}
			for i := range got {
				if !m4.Equivalent(got[i], want[i]) {
					t.Fatalf("profile %d seed %d span %d:\n got %v\nwant %v", pi, seed, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSplitChunkOverwrittenExtremumScansAfresh: a chunk split across both
// spans whose chunk-wide top (span 0) and bottom (span 1) are overwritten by
// a later chunk. The TP and BP tasks load the chunk over their span — the
// per-(chunk, span) summary all four functions share — find the extremum
// overwritten and exclude it. The rescan under that exclusion must be the
// task's own: answered from the shared summary it would offer the same
// point again, forever.
func TestSplitChunkOverwrittenExtremumScansAfresh(t *testing.T) {
	base := make(series.Series, 100)
	for i := range base {
		base[i] = series.Point{T: int64(i), V: float64(i % 10)}
	}
	base[40].V = 100
	base[60].V = -100
	snap := buildSnapshot(t, map[storage.Version]series.Series{
		1: base,
		2: {{T: 40, V: -1}, {T: 60, V: 5}},
	}, nil)
	q := m4.Query{Tqs: 0, Tqe: 100, W: 2}
	want, err := m4udf.Compute(snap, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{{}, {EagerLoad: true}} {
		type result struct {
			aggs []m4.Aggregate
			err  error
		}
		done := make(chan result, 1)
		go func() {
			aggs, err := ComputeContext(context.Background(), snap, q, opts)
			done <- result{aggs, err}
		}()
		select {
		case r := <-done:
			if r.err != nil {
				t.Fatalf("%+v: %v", opts, r.err)
			}
			assertEquivalent(t, r.aggs, want, fmt.Sprintf("%+v", opts))
			if r.aggs[0].Top != (series.Point{T: 9, V: 9}) || r.aggs[1].Bottom != (series.Point{T: 50, V: 0}) {
				t.Fatalf("%+v: %v; the overwritten extrema leaked through", opts, r.aggs)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%+v: the candidate loop keeps offering the excluded extremum", opts)
		}
	}
}
