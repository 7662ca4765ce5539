package workload

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"m4lsm/internal/lsm"
	"m4lsm/internal/mergeread"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
)

func TestPresetsGenerateValidSeries(t *testing.T) {
	for _, p := range Presets() {
		data := p.Generate(5000, 1)
		if len(data) != 5000 {
			t.Fatalf("%s: %d points", p.Name, len(data))
		}
		if err := data.Columns().Validate(); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for _, pt := range data {
			if math.IsInf(pt.V, 0) {
				t.Fatalf("%s: infinite value", p.Name)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := KOB()
	a := p.Generate(1000, 42)
	b := p.Generate(1000, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("point %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	c := p.Generate(1000, 43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical data")
	}
}

func TestSkewedPresetsHaveGaps(t *testing.T) {
	// KOB/RcvTime must show the skewed inter-arrival distribution that
	// drives Figures 10/11/14; BallSpeed/MF03 must be near regular.
	gapRatio := func(p Preset) float64 {
		data := p.Generate(20000, 7)
		var maxDelta, medDelta int64
		deltas := make([]int64, 0, len(data)-1)
		for i := 1; i < len(data); i++ {
			d := data[i].T - data[i-1].T
			deltas = append(deltas, d)
			if d > maxDelta {
				maxDelta = d
			}
		}
		// crude median
		for _, d := range deltas {
			if d == p.IntervalMs {
				medDelta = d
				break
			}
		}
		if medDelta == 0 {
			medDelta = 1
		}
		return float64(maxDelta) / float64(medDelta)
	}
	if r := gapRatio(KOB()); r < 50 {
		t.Errorf("KOB max/median delta = %.0f, want skewed (>=50)", r)
	}
	if r := gapRatio(RcvTime()); r < 50 {
		t.Errorf("RcvTime max/median delta = %.0f, want skewed (>=50)", r)
	}
	if r := gapRatio(MF03()); r > 2000 {
		t.Errorf("MF03 max/median delta = %.0f, want near-regular", r)
	}
}

func TestTable2(t *testing.T) {
	rows := Table2For(Presets(), 0.001, 1)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	wantNames := []string{"BallSpeed", "MF03", "KOB", "RcvTime"}
	for i, r := range rows {
		if r.Dataset != wantNames[i] {
			t.Errorf("row %d = %s, want %s", i, r.Dataset, wantNames[i])
		}
		if r.Points <= 0 || r.SpanMillis <= 0 {
			t.Errorf("row %+v has empty data", r)
		}
	}
	// Paper-relative cardinality ordering: MF03 > BallSpeed > KOB > RcvTime.
	if !(rows[1].Points > rows[0].Points && rows[0].Points > rows[2].Points && rows[2].Points > rows[3].Points) {
		t.Errorf("cardinality ordering broken: %+v", rows)
	}
}

func newEngine(t *testing.T, chunkSize int) *lsm.Engine {
	t.Helper()
	e, err := lsm.Open(lsm.Options{Dir: t.TempDir(), FlushThreshold: chunkSize, DisableWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func TestLoadNoOverlap(t *testing.T) {
	e := newEngine(t, 100)
	data := KOB().Generate(1000, 3)
	if err := Load(e, "s", data, LoadOptions{ChunkSize: 100}); err != nil {
		t.Fatal(err)
	}
	r := series.TimeRange{Start: 0, End: math.MaxInt64}
	pct, err := OverlapPercentage(e, "s", r)
	if err != nil {
		t.Fatal(err)
	}
	if pct != 0 {
		t.Errorf("overlap = %.2f, want 0", pct)
	}
	snap, _ := e.Snapshot("s", r)
	if len(snap.Chunks) != 10 {
		t.Errorf("chunks = %d, want 10", len(snap.Chunks))
	}
	merged, err := mergeread.Merge(snap, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != len(data) {
		t.Fatalf("merged %d points, want %d", len(merged), len(data))
	}
}

func TestLoadFullOverlap(t *testing.T) {
	e := newEngine(t, 100)
	data := MF03().Generate(1000, 3)
	if err := Load(e, "s", data, LoadOptions{ChunkSize: 100, OverlapFraction: 1}); err != nil {
		t.Fatal(err)
	}
	r := series.TimeRange{Start: 0, End: math.MaxInt64}
	pct, err := OverlapPercentage(e, "s", r)
	if err != nil {
		t.Fatal(err)
	}
	if pct < 0.99 {
		t.Errorf("overlap = %.2f, want ~1", pct)
	}
	// Data must round-trip regardless of write order.
	snap, _ := e.Snapshot("s", r)
	merged, err := mergeread.Merge(snap, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != len(data) {
		t.Fatalf("merged %d points, want %d", len(merged), len(data))
	}
	for i := range merged {
		if merged[i] != data[i] {
			t.Fatalf("point %d: %v vs %v", i, merged[i], data[i])
		}
	}
}

func TestLoadPartialOverlapBetween(t *testing.T) {
	e := newEngine(t, 50)
	data := MF03().Generate(2000, 9)
	if err := Load(e, "s", data, LoadOptions{ChunkSize: 50, OverlapFraction: 0.5, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	pct, err := OverlapPercentage(e, "s", series.TimeRange{Start: 0, End: math.MaxInt64})
	if err != nil {
		t.Fatal(err)
	}
	if pct < 0.2 || pct > 0.8 {
		t.Errorf("overlap = %.2f, want around 0.5", pct)
	}
}

func TestLoadValidation(t *testing.T) {
	e := newEngine(t, 100)
	if err := Load(e, "s", nil, LoadOptions{ChunkSize: 0}); err == nil {
		t.Error("ChunkSize=0 accepted")
	}
	if err := Load(e, "s", nil, LoadOptions{ChunkSize: 10, OverlapFraction: 2}); err == nil {
		t.Error("OverlapFraction=2 accepted")
	}
}

func TestApplyDeletes(t *testing.T) {
	e := newEngine(t, 100)
	data := MF03().Generate(500, 4)
	if err := Load(e, "s", data, LoadOptions{ChunkSize: 100}); err != nil {
		t.Fatal(err)
	}
	if err := ApplyDeletes(e, "s", data, DeleteOptions{Count: 10, RangeMillis: 100, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if got := e.Info().Deletes; got != 10 {
		t.Errorf("deletes = %d, want 10", got)
	}
	// Deletes must actually remove points.
	snap, _ := e.Snapshot("s", series.TimeRange{Start: 0, End: math.MaxInt64})
	merged, err := mergeread.Merge(snap, series.TimeRange{Start: 0, End: math.MaxInt64})
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) >= len(data) {
		t.Errorf("merged %d points, want fewer than %d", len(merged), len(data))
	}
}

func TestApplyDeletesNoop(t *testing.T) {
	e := newEngine(t, 100)
	if err := ApplyDeletes(e, "s", nil, DeleteOptions{Count: 5}); err != nil {
		t.Fatal(err)
	}
	if err := ApplyDeletes(e, "s", series.Series{{T: 1, V: 1}}, DeleteOptions{Count: 0}); err != nil {
		t.Fatal(err)
	}
}

func TestLoadOverlapSecondWriteFullyOutOfOrder(t *testing.T) {
	// The interleave writer must put the union's last point in the first
	// write, so the second write is late as a whole and each pair yields
	// exactly two chunks: the first write's, then one late chunk inside it.
	e := newEngine(t, 100)
	data := MF03().Generate(400, 5) // 2 pairs at chunk size 100
	if err := Load(e, "s", data, LoadOptions{ChunkSize: 100, OverlapFraction: 1}); err != nil {
		t.Fatal(err)
	}
	info := e.Info()
	if info.Chunks != 4 {
		t.Errorf("chunks = %d, want 4", info.Chunks)
	}
	snap, err := e.Snapshot("s", series.TimeRange{Start: data[0].T, End: data[len(data)-1].T + 1})
	if err != nil {
		t.Fatal(err)
	}
	chunks := slices.Clone(snap.Chunks)
	slices.SortFunc(chunks, func(a, b storage.ChunkRef) int { return cmp.Compare(a.Meta.Version, b.Meta.Version) })
	for i := 0; i+1 < len(chunks); i += 2 {
		first, late := chunks[i].Meta, chunks[i+1].Meta
		if late.Last.T > first.Last.T || late.Last.T < first.First.T {
			t.Errorf("pair %d: second chunk %v is not late inside %v", i/2, late, first)
		}
	}
}

// OverlapPercentage measures the fraction of chunks in the engine whose
// time interval overlaps at least one other chunk of the same series. It
// verifies that Load hit the requested §4.3 storage shape.
func OverlapPercentage(e *lsm.Engine, seriesID string, r series.TimeRange) (float64, error) {
	snap, err := e.Snapshot(seriesID, r)
	if err != nil {
		return 0, err
	}
	n := len(snap.Chunks)
	if n == 0 {
		return 0, nil
	}
	overlapping := 0
	for i, a := range snap.Chunks {
		for j, b := range snap.Chunks {
			if i == j {
				continue
			}
			if a.Meta.First.T <= b.Meta.Last.T && b.Meta.First.T <= a.Meta.Last.T {
				overlapping++
				break
			}
		}
	}
	return float64(overlapping) / float64(n), nil
}
