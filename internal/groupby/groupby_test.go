package groupby

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"m4lsm/internal/m4"
	"m4lsm/internal/m4lsm"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
	"m4lsm/internal/testutil"
)

func buildSnapshot(t *testing.T, chunks map[storage.Version]series.Series, dels []storage.Delete) *storage.Snapshot {
	t.Helper()
	stats := &storage.Stats{}
	snap := &storage.Snapshot{SeriesID: "s", Stats: stats, Deletes: dels}
	for ver, data := range chunks {
		ref, err := testutil.MemChunk("s", ver, data)
		if err != nil {
			t.Fatal(err)
		}
		snap.Chunks = append(snap.Chunks, ref)
	}
	return snap
}

// compute1 runs Compute over one snapshot with default options.
func compute1(snap *storage.Snapshot, q m4.Query, fns []Func) ([]Row, error) {
	outs, err := Compute(context.Background(), []*storage.Snapshot{snap}, q, fns, m4lsm.Options{})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

func TestComputeAllFunctions(t *testing.T) {
	snap := buildSnapshot(t, map[storage.Version]series.Series{
		1: {{T: 0, V: 2}, {T: 10, V: 8}, {T: 20, V: 5}, {T: 60, V: 1}},
	}, nil)
	q := m4.Query{Tqs: 0, Tqe: 100, W: 2}
	fns := []Func{Count, Sum, Avg, Min, Max, First, Last}
	rows, err := compute1(snap, q, fns)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	want0 := []float64{3, 15, 5, 2, 8, 2, 5}
	for j, w := range want0 {
		if rows[0].Values[j] != w {
			t.Errorf("span0 %s = %g, want %g", fns[j], rows[0].Values[j], w)
		}
	}
	want1 := []float64{1, 1, 1, 1, 1, 1, 1}
	for j, w := range want1 {
		if rows[1].Values[j] != w {
			t.Errorf("span1 %s = %g, want %g", fns[j], rows[1].Values[j], w)
		}
	}
}

func TestEnvelopeUsesMergeFreePath(t *testing.T) {
	snap := buildSnapshot(t, map[storage.Version]series.Series{
		1: {{T: 0, V: 2}, {T: 10, V: 8}},
	}, nil)
	q := m4.Query{Tqs: 0, Tqe: 100, W: 1}
	rows, err := compute1(snap, q, []Func{Min, Max, First, Last})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Values[0] != 2 || rows[0].Values[1] != 8 || rows[0].Values[2] != 2 || rows[0].Values[3] != 8 {
		t.Fatalf("rows = %v", rows)
	}
	if snap.Stats.ChunksLoaded != 0 {
		t.Errorf("envelope functions loaded chunks: %v", snap.Stats)
	}
}

func TestCountForcesMerge(t *testing.T) {
	snap := buildSnapshot(t, map[storage.Version]series.Series{
		1: {{T: 0, V: 2}, {T: 10, V: 8}},
	}, nil)
	q := m4.Query{Tqs: 0, Tqe: 100, W: 1}
	if _, err := compute1(snap, q, []Func{Count}); err != nil {
		t.Fatal(err)
	}
	if snap.Stats.ChunksLoaded == 0 {
		t.Error("count must scan the merged series")
	}
}

func TestOverwritesNotDoubleCounted(t *testing.T) {
	snap := buildSnapshot(t, map[storage.Version]series.Series{
		1: {{T: 0, V: 2}, {T: 10, V: 4}},
		2: {{T: 10, V: 6}}, // overwrite, not an extra point
	}, []storage.Delete{{SeriesID: "s", Version: 3, Start: 0, End: 0}})
	q := m4.Query{Tqs: 0, Tqe: 100, W: 1}
	rows, err := compute1(snap, q, []Func{Count, Sum})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Values[0] != 1 || rows[0].Values[1] != 6 {
		t.Fatalf("rows = %v, want count=1 sum=6", rows)
	}
}

func TestValidation(t *testing.T) {
	snap := buildSnapshot(t, map[storage.Version]series.Series{1: {{T: 0, V: 1}}}, nil)
	if _, err := compute1(snap, m4.Query{Tqs: 0, Tqe: 0, W: 1}, []Func{Count}); err == nil {
		t.Error("invalid query accepted")
	}
	if _, err := compute1(snap, m4.Query{Tqs: 0, Tqe: 10, W: 1}, nil); err == nil {
		t.Error("empty function list accepted")
	}
	if _, err := compute1(snap, m4.Query{Tqs: 0, Tqe: 10, W: 1}, []Func{Func(99)}); err == nil {
		t.Error("unknown function accepted")
	}
}

func TestByName(t *testing.T) {
	for f := Func(0); f < numFuncs; f++ {
		got, ok := ByName(f.String())
		if !ok || got != f {
			t.Errorf("ByName(%s) = %v,%v", f, got, ok)
		}
	}
	if _, ok := ByName("median"); ok {
		t.Error("unknown name resolved")
	}
	if got, ok := ByName("COUNT"); !ok || got != Count {
		t.Error("case-insensitive lookup failed")
	}
	if Func(99).String() == "" {
		t.Error("unknown func name empty")
	}
}

// TestAgainstNaive cross-checks both paths against a naive computation on
// random LSM states.
func TestAgainstNaive(t *testing.T) {
	fns := []Func{Count, Sum, Avg, Min, Max, First, Last}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		snap := testutil.RandomSnapshot(rng, testutil.DefaultGenConfig)
		q := m4.Query{Tqs: rng.Int63n(60), Tqe: rng.Int63n(60) + 70, W: 1 + rng.Intn(8)}
		merged, err := testutil.NaiveMerge(snap, q.Range())
		if err != nil {
			t.Fatal(err)
		}
		rows, err := compute1(snap, q, fns)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Also the envelope-only fast path.
		envRows, err := compute1(snap, q, []Func{Min, Max, First, Last})
		if err != nil {
			t.Fatalf("seed %d env: %v", seed, err)
		}
		bydSpan := map[int]Row{}
		for _, r := range rows {
			bydSpan[r.Span] = r
		}
		envBySpan := map[int]Row{}
		for _, r := range envRows {
			envBySpan[r.Span] = r
		}
		for i := 0; i < q.W; i++ {
			sub := merged.Slice(q.Span(i))
			row, ok := bydSpan[i]
			if len(sub) == 0 {
				if ok {
					t.Fatalf("seed %d span %d: row for empty span", seed, i)
				}
				continue
			}
			if !ok {
				t.Fatalf("seed %d span %d: missing row", seed, i)
			}
			count := float64(len(sub))
			sum := 0.0
			minV, maxV := math.Inf(1), math.Inf(-1)
			for _, p := range sub {
				sum += p.V
				minV = math.Min(minV, p.V)
				maxV = math.Max(maxV, p.V)
			}
			want := []float64{count, sum, sum / count, minV, maxV, sub[0].V, sub[len(sub)-1].V}
			for j, w := range want {
				if math.Abs(row.Values[j]-w) > 1e-9 {
					t.Fatalf("seed %d span %d %s: got %g, want %g", seed, i, fns[j], row.Values[j], w)
				}
			}
			env := envBySpan[i]
			if env.Values[0] != minV || env.Values[1] != maxV || env.Values[2] != sub[0].V || env.Values[3] != sub[len(sub)-1].V {
				t.Fatalf("seed %d span %d: envelope fast path %v, want %v", seed, i, env.Values, want[3:])
			}
		}
	}
}
