package m4lsm

import (
	"context"
	"math/rand"
	"testing"

	"m4lsm/internal/m4"
	"m4lsm/internal/m4udf"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
	"m4lsm/internal/testutil"
)

// buildSnapshot assembles a snapshot from explicit chunks keyed by version.
func buildSnapshot(t *testing.T, chunks map[storage.Version]series.Series, dels []storage.Delete) *storage.Snapshot {
	t.Helper()
	stats := &storage.Stats{}
	snap := &storage.Snapshot{SeriesID: "s", Stats: stats, Deletes: dels}
	// Deterministic order: ascending version.
	vers := make([]storage.Version, 0, len(chunks))
	for v := range chunks {
		vers = append(vers, v)
	}
	for i := range vers {
		for j := i + 1; j < len(vers); j++ {
			if vers[j] < vers[i] {
				vers[i], vers[j] = vers[j], vers[i]
			}
		}
	}
	for _, ver := range vers {
		ref, err := testutil.MemChunk("s", ver, chunks[ver])
		if err != nil {
			t.Fatal(err)
		}
		snap.Chunks = append(snap.Chunks, ref)
	}
	return snap
}

// reference computes M4 aggregates over the naive merged series.
func reference(t *testing.T, snap *storage.Snapshot, q m4.Query) []m4.Aggregate {
	t.Helper()
	merged, err := testutil.NaiveMerge(snap, q.Range())
	if err != nil {
		t.Fatal(err)
	}
	aggs, err := m4.ComputeSeries(q, merged)
	if err != nil {
		t.Fatal(err)
	}
	return aggs
}

func assertEquivalent(t *testing.T, got, want []m4.Aggregate, ctx string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d spans, want %d", ctx, len(got), len(want))
	}
	for i := range got {
		if !m4.Equivalent(got[i], want[i]) {
			t.Fatalf("%s: span %d:\n got %v\nwant %v", ctx, i, got[i], want[i])
		}
	}
}

func TestSingleChunkSingleSpan(t *testing.T) {
	snap := buildSnapshot(t, map[storage.Version]series.Series{
		1: {{T: 10, V: 3}, {T: 20, V: 8}, {T: 30, V: 1}, {T: 40, V: 5}},
	}, nil)
	q := m4.Query{Tqs: 0, Tqe: 100, W: 1}
	want := reference(t, snap, q) // loads chunks; reset stats before the operator runs
	*snap.Stats = storage.Stats{}
	got, err := Compute(snap, q)
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, got, want, "single chunk")
	// The chunk lies fully inside the span with no deletes: metadata must
	// answer everything without loading (merge-free fast path).
	if snap.Stats.ChunksLoaded != 0 || snap.Stats.TimeBlocksLoaded != 0 {
		t.Errorf("fast path loaded chunks: %v", snap.Stats)
	}
	if snap.Stats.ChunksPruned != 1 {
		t.Errorf("ChunksPruned = %d, want 1", snap.Stats.ChunksPruned)
	}
}

func TestFigure2TopPointFromMetadata(t *testing.T) {
	// Fig. 2(c): TP(T_i) answered as TP(C1) straight from metadata even
	// though chunks overlap, because TP(C1) is the max and is latest.
	snap := buildSnapshot(t, map[storage.Version]series.Series{
		1: {{T: 10, V: 1}, {T: 15, V: 9}, {T: 20, V: 2}},
		2: {{T: 12, V: 4}, {T: 22, V: 5}},
	}, nil)
	q := m4.Query{Tqs: 0, Tqe: 30, W: 1}
	want := reference(t, snap, q)
	*snap.Stats = storage.Stats{}
	got, err := Compute(snap, q)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Top.V != 9 {
		t.Errorf("top = %v, want value 9", got[0].Top)
	}
	// Candidate t=15 overlaps C2's interval [12,22], so one existence
	// probe on C2's timestamps is needed, but no full chunk load.
	if snap.Stats.ChunksLoaded != 0 {
		t.Errorf("full loads = %d, want 0 (merge free)", snap.Stats.ChunksLoaded)
	}
	if snap.Stats.TimeBlocksLoaded == 0 || snap.Stats.IndexProbes == 0 {
		t.Errorf("expected partial load + index probe, got %v", snap.Stats)
	}
	assertEquivalent(t, got, want, "figure 2c")
}

func TestExample32FirstPointLazyLoad(t *testing.T) {
	// Figure 7(a) / Example 3.2: G = FP, C'' = {C1, C2, C4}, D = {D3}.
	// FP(C2) is the earliest candidate but D3 deletes the head of C1 and
	// C2; FP(C4) is the answer and C1, C2 are never loaded.
	c1 := series.Series{{T: 12, V: 2}, {T: 30, V: 3}}
	c2 := series.Series{{T: 10, V: 1}, {T: 28, V: 2}}
	c4 := series.Series{{T: 18, V: 5}, {T: 40, V: 4}}
	d3 := storage.Delete{SeriesID: "s", Version: 3, Start: 0, End: 15}
	snap := buildSnapshot(t, map[storage.Version]series.Series{1: c1, 2: c2, 4: c4}, []storage.Delete{d3})
	q := m4.Query{Tqs: 0, Tqe: 50, W: 1}
	got, err := Compute(snap, q)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].First != (series.Point{T: 18, V: 5}) {
		t.Errorf("first = %v, want FP(C4) = (18, 5)", got[0].First)
	}
	assertEquivalent(t, got, reference(t, snap, q), "example 3.2")
}

func TestExample34TopPointOverwritten(t *testing.T) {
	// Figure 7(b) / Example 3.4: TP(C3) is overwritten by a later chunk;
	// the remaining metadata candidate TP(C1) is the answer.
	c1 := series.Series{{T: 10, V: 8}, {T: 20, V: 2}}
	c3 := series.Series{{T: 30, V: 9}, {T: 40, V: 1}}
	c4 := series.Series{{T: 30, V: 3}, {T: 50, V: 2}} // overwrites t=30
	snap := buildSnapshot(t, map[storage.Version]series.Series{1: c1, 3: c3, 4: c4}, nil)
	q := m4.Query{Tqs: 0, Tqe: 60, W: 1}
	got, err := Compute(snap, q)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Top.V != 8 {
		t.Errorf("top = %v, want TP(C1) with value 8", got[0].Top)
	}
	assertEquivalent(t, got, reference(t, snap, q), "example 3.4")
}

func TestDeleteMakesSpanEmpty(t *testing.T) {
	snap := buildSnapshot(t, map[storage.Version]series.Series{
		1: {{T: 10, V: 1}, {T: 20, V: 2}},
	}, []storage.Delete{{SeriesID: "s", Version: 2, Start: 0, End: 100}})
	q := m4.Query{Tqs: 0, Tqe: 100, W: 2}
	got, err := Compute(snap, q)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range got {
		if !a.Empty {
			t.Errorf("span %d = %v, want empty", i, a)
		}
	}
}

func TestSpanSplitChunk(t *testing.T) {
	// One chunk split across two spans: the operator must load it to
	// recompute per-span extremes.
	snap := buildSnapshot(t, map[storage.Version]series.Series{
		1: {{T: 10, V: 5}, {T: 20, V: 1}, {T: 60, V: 9}, {T: 70, V: 2}},
	}, nil)
	q := m4.Query{Tqs: 0, Tqe: 100, W: 2} // spans [0,50) and [50,100)
	want := reference(t, snap, q)
	*snap.Stats = storage.Stats{}
	got, err := Compute(snap, q)
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, got, want, "split chunk")
	if got[0].Bottom.V != 1 || got[0].Top.V != 5 {
		t.Errorf("span0 = %v", got[0])
	}
	if got[1].Bottom.V != 2 || got[1].Top.V != 9 {
		t.Errorf("span1 = %v", got[1])
	}
	if snap.Stats.ChunksLoaded != 1 {
		t.Errorf("loads = %d, want 1 (split chunk loaded once, shared across spans)", snap.Stats.ChunksLoaded)
	}
}

func TestEmptyQueryRangePortions(t *testing.T) {
	// Spans beyond the data and W larger than the range length.
	snap := buildSnapshot(t, map[storage.Version]series.Series{
		1: {{T: 5, V: 1}},
	}, nil)
	q := m4.Query{Tqs: 0, Tqe: 4, W: 8} // data outside range; zero-width spans
	got, err := Compute(snap, q)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range got {
		if !a.Empty {
			t.Errorf("span %d non-empty: %v", i, a)
		}
	}
}

func TestInvalidQuery(t *testing.T) {
	snap := buildSnapshot(t, map[storage.Version]series.Series{1: {{T: 5, V: 1}}}, nil)
	if _, err := Compute(snap, m4.Query{Tqs: 0, Tqe: 10, W: 0}); err == nil {
		t.Error("invalid query accepted")
	}
}

func TestOverwriteSameTimestampValueMatters(t *testing.T) {
	// FP's value must come from the latest version at the minimal time.
	snap := buildSnapshot(t, map[storage.Version]series.Series{
		1: {{T: 10, V: 1}, {T: 20, V: 2}},
		2: {{T: 10, V: 7}},
	}, nil)
	q := m4.Query{Tqs: 0, Tqe: 100, W: 1}
	got, err := Compute(snap, q)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].First != (series.Point{T: 10, V: 7}) {
		t.Errorf("first = %v, want overwritten value (10, 7)", got[0].First)
	}
	assertEquivalent(t, got, reference(t, snap, q), "overwrite FP")
}

func TestDeletedTopThenRewritten(t *testing.T) {
	// v1 has the global top at t=15; D2 deletes it; v3 rewrites t=15 with
	// a smaller value. TP must fall back correctly.
	snap := buildSnapshot(t, map[storage.Version]series.Series{
		1: {{T: 10, V: 3}, {T: 15, V: 9}, {T: 20, V: 4}},
		3: {{T: 15, V: 1}},
	}, []storage.Delete{{SeriesID: "s", Version: 2, Start: 15, End: 15}})
	q := m4.Query{Tqs: 0, Tqe: 100, W: 1}
	got, err := Compute(snap, q)
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, got, reference(t, snap, q), "deleted top rewritten")
	if got[0].Top.V != 4 {
		t.Errorf("top = %v, want 4", got[0].Top)
	}
}

func TestBottomOverwrittenByDeletedPoint(t *testing.T) {
	// Definition 2.7 subtlety: C2 overwrites C1's bottom at t=10, and
	// C2's own point at t=10 is deleted by D3. The timestamp vanishes
	// entirely; the bottom is elsewhere.
	snap := buildSnapshot(t, map[storage.Version]series.Series{
		1: {{T: 10, V: -5}, {T: 20, V: 2}},
		2: {{T: 10, V: 8}},
	}, []storage.Delete{{SeriesID: "s", Version: 3, Start: 10, End: 10}})
	q := m4.Query{Tqs: 0, Tqe: 100, W: 1}
	got, err := Compute(snap, q)
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, got, reference(t, snap, q), "overwritten by deleted point")
	if got[0].Bottom.V != 2 || got[0].First.T != 20 {
		t.Errorf("aggregate = %v", got[0])
	}
}

func TestManySpansRegularData(t *testing.T) {
	var data series.Series
	for i := 0; i < 1000; i++ {
		data = append(data, series.Point{T: int64(i) * 10, V: float64((i * 7) % 101)})
	}
	// Four non-overlapping chunks of 250 points each.
	chunks := map[storage.Version]series.Series{}
	for c := 0; c < 4; c++ {
		chunks[storage.Version(c+1)] = data[c*250 : (c+1)*250]
	}
	snap := buildSnapshot(t, chunks, nil)
	q := m4.Query{Tqs: 0, Tqe: 10000, W: 37}
	got, err := Compute(snap, q)
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, got, reference(t, snap, q), "regular data")
}

func randomQuery(rng *rand.Rand) m4.Query {
	start := rng.Int63n(80)
	return m4.Query{
		Tqs: start,
		Tqe: start + 1 + rng.Int63n(80),
		W:   1 + rng.Intn(12),
	}
}

// TestEquivalenceProperty is the central invariant of the reproduction:
// for arbitrary chunk/delete states and arbitrary queries, M4-LSM must be
// visually equivalent to M4 over the merged series.
func TestEquivalenceProperty(t *testing.T) {
	for seed := int64(0); seed < 1500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		snap := testutil.RandomSnapshot(rng, testutil.DefaultGenConfig)
		q := randomQuery(rng)
		want := reference(t, snap, q)
		got, err := Compute(snap, q)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d spans, want %d", seed, len(got), len(want))
		}
		for i := range got {
			if !m4.Equivalent(got[i], want[i]) {
				t.Fatalf("seed %d q=%+v span %d:\n got %v\nwant %v", seed, q, i, got[i], want[i])
			}
		}
	}
}

// TestEquivalenceAgainstUDF cross-checks the two operators directly.
func TestEquivalenceAgainstUDF(t *testing.T) {
	for seed := int64(5000); seed < 5300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		snap := testutil.RandomSnapshot(rng, testutil.DefaultGenConfig)
		q := randomQuery(rng)
		udf, err := m4udf.Compute(snap, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Compute(snap, q)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if !m4.Equivalent(got[i], udf[i]) {
				t.Fatalf("seed %d span %d: lsm %v, udf %v", seed, i, got[i], udf[i])
			}
		}
	}
}

// TestEquivalenceDeleteHeavy stresses the delete verification paths.
func TestEquivalenceDeleteHeavy(t *testing.T) {
	cfg := testutil.GenConfig{
		MaxChunks:      4,
		MaxChunkPoints: 12,
		MaxDeletes:     10,
		TimeHorizon:    60,
		ValueRange:     8,
	}
	for seed := int64(0); seed < 800; seed++ {
		rng := rand.New(rand.NewSource(seed))
		snap := testutil.RandomSnapshot(rng, cfg)
		q := m4.Query{Tqs: 0, Tqe: 60, W: 1 + rng.Intn(6)}
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

// TestEquivalenceOverwriteHeavy stresses overwrite verification: few
// distinct timestamps, many chunks.
func TestEquivalenceOverwriteHeavy(t *testing.T) {
	cfg := testutil.GenConfig{
		MaxChunks:      8,
		MaxChunkPoints: 10,
		MaxDeletes:     2,
		TimeHorizon:    16, // heavy timestamp collisions
		ValueRange:     8,
	}
	for seed := int64(0); seed < 800; seed++ {
		rng := rand.New(rand.NewSource(seed))
		snap := testutil.RandomSnapshot(rng, cfg)
		q := m4.Query{Tqs: 0, Tqe: 16, W: 1 + rng.Intn(4)}
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

// TestOptionsEquivalence checks every ablation configuration returns the
// same result.
func TestOptionsEquivalence(t *testing.T) {
	variants := []Options{
		{},
		{DisableStepIndex: true},
		{EagerLoad: true},
		{DisablePartialLoad: true},
		{DisableStepIndex: true, EagerLoad: true, DisablePartialLoad: true},
	}
	for seed := int64(100); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		snap := testutil.RandomSnapshot(rng, testutil.DefaultGenConfig)
		q := randomQuery(rng)
		want := reference(t, snap, q)
		for vi, opts := range variants {
			got, err := ComputeContext(context.Background(), snap, q, opts)
			if err != nil {
				t.Fatalf("seed %d variant %d: %v", seed, vi, err)
			}
			for i := range got {
				if !m4.Equivalent(got[i], want[i]) {
					t.Fatalf("seed %d variant %d span %d:\n got %v\nwant %v",
						seed, vi, i, got[i], want[i])
				}
			}
		}
	}
}

func TestMergeFreePruningOnDisjointChunks(t *testing.T) {
	// Ten disjoint chunks, w=10 spans aligned so each chunk sits in one
	// span: no loads at all.
	chunks := map[storage.Version]series.Series{}
	for c := 0; c < 10; c++ {
		base := int64(c * 100)
		chunks[storage.Version(c+1)] = series.Series{
			{T: base + 10, V: 1}, {T: base + 50, V: 5}, {T: base + 90, V: 3},
		}
	}
	snap := buildSnapshot(t, chunks, nil)
	q := m4.Query{Tqs: 0, Tqe: 1000, W: 10}
	want := reference(t, snap, q)
	*snap.Stats = storage.Stats{}
	got, err := Compute(snap, q)
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, got, want, "disjoint chunks")
	if snap.Stats.ChunksLoaded != 0 || snap.Stats.TimeBlocksLoaded != 0 {
		t.Errorf("loads happened on disjoint aligned chunks: %v", snap.Stats)
	}
	if snap.Stats.ChunksPruned != 10 {
		t.Errorf("pruned = %d, want 10", snap.Stats.ChunksPruned)
	}
}

func TestEagerLoadLoadsEverything(t *testing.T) {
	chunks := map[storage.Version]series.Series{
		1: {{T: 10, V: 1}}, 2: {{T: 110, V: 2}},
	}
	snap := buildSnapshot(t, chunks, nil)
	q := m4.Query{Tqs: 0, Tqe: 200, W: 2}
	if _, err := ComputeContext(context.Background(), snap, q, Options{EagerLoad: true}); err != nil {
		t.Fatal(err)
	}
	if snap.Stats.ChunksLoaded != 2 {
		t.Errorf("eager loads = %d, want 2", snap.Stats.ChunksLoaded)
	}
}

func TestPartialLoadPreferredForProbes(t *testing.T) {
	// Overlapping chunks force existence probes; the default options must
	// use timestamp-only loads for them.
	snap := buildSnapshot(t, map[storage.Version]series.Series{
		1: {{T: 10, V: 1}, {T: 15, V: 9}, {T: 20, V: 2}},
		2: {{T: 12, V: 4}, {T: 22, V: 5}},
	}, nil)
	q := m4.Query{Tqs: 0, Tqe: 30, W: 1}
	if _, err := Compute(snap, q); err != nil {
		t.Fatal(err)
	}
	if snap.Stats.TimeBlocksLoaded == 0 {
		t.Error("no partial loads despite overlap probes")
	}
	partialBytes := snap.Stats.BytesRead

	snap2 := buildSnapshot(t, map[storage.Version]series.Series{
		1: {{T: 10, V: 1}, {T: 15, V: 9}, {T: 20, V: 2}},
		2: {{T: 12, V: 4}, {T: 22, V: 5}},
	}, nil)
	if _, err := ComputeContext(context.Background(), snap2, q, Options{DisablePartialLoad: true}); err != nil {
		t.Fatal(err)
	}
	if snap2.Stats.BytesRead <= partialBytes {
		t.Errorf("full-load ablation read %d bytes, partial read %d; want more",
			snap2.Stats.BytesRead, partialBytes)
	}
}

func TestStatsRoundsCounted(t *testing.T) {
	snap := buildSnapshot(t, map[storage.Version]series.Series{1: {{T: 10, V: 1}}}, nil)
	q := m4.Query{Tqs: 0, Tqe: 20, W: 1}
	if _, err := Compute(snap, q); err != nil {
		t.Fatal(err)
	}
	if snap.Stats.CandidateRounds < 4 {
		t.Errorf("rounds = %d, want >= 4 (one per G)", snap.Stats.CandidateRounds)
	}
}

func TestNilStatsSnapshot(t *testing.T) {
	ref, err := testutil.MemChunk("s", 1, series.Series{{T: 10, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	snap := &storage.Snapshot{
		SeriesID: "s",
		Chunks:   []storage.ChunkRef{ref},
	}
	got, err := Compute(snap, m4.Query{Tqs: 0, Tqe: 20, W: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Empty {
		t.Error("span empty")
	}
}
