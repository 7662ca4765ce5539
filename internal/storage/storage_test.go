package storage

import (
	"strings"
	"sync"
	"testing"

	"m4lsm/internal/m4"
	"m4lsm/internal/series"
)

func TestComputeMeta(t *testing.T) {
	data := series.Series{{T: 10, V: 5}, {T: 20, V: -1}, {T: 30, V: 9}, {T: 40, V: 2}}
	first, last, bottom, top, ok := ComputeMeta(data.Columns())
	if !ok {
		t.Fatal("ok = false")
	}
	if first != (series.Point{T: 10, V: 5}) || last != (series.Point{T: 40, V: 2}) {
		t.Errorf("first/last = %v/%v", first, last)
	}
	if bottom != (series.Point{T: 20, V: -1}) || top != (series.Point{T: 30, V: 9}) {
		t.Errorf("bottom/top = %v/%v", bottom, top)
	}
	if _, _, _, _, ok := ComputeMeta(series.Columns{}); ok {
		t.Error("empty series reported ok")
	}
}

func TestComputeMetaTiesKeepEarliest(t *testing.T) {
	// Definition 2.1 allows any extremal point; ComputeMeta keeps the
	// earliest so the choice is deterministic.
	data := series.Series{{T: 10, V: 5}, {T: 20, V: 5}, {T: 30, V: 1}, {T: 40, V: 1}}
	_, _, bottom, top, _ := ComputeMeta(data.Columns())
	if bottom.T != 30 {
		t.Errorf("bottom.T = %d, want 30", bottom.T)
	}
	if top.T != 10 {
		t.Errorf("top.T = %d, want 10", top.T)
	}
}

func TestChunkMetaOverlaps(t *testing.T) {
	m := ChunkMeta{First: series.Point{T: 100}, Last: series.Point{T: 200}}
	tests := []struct {
		r    series.TimeRange
		want bool
	}{
		{series.TimeRange{Start: 0, End: 100}, false},  // ends before chunk
		{series.TimeRange{Start: 0, End: 101}, true},   // touches first point
		{series.TimeRange{Start: 200, End: 300}, true}, // starts on last point (closed)
		{series.TimeRange{Start: 201, End: 300}, false},
		{series.TimeRange{Start: 150, End: 160}, true},
		{series.TimeRange{Start: 150, End: 150}, false}, // empty, straddled by the chunk
		{series.TimeRange{Start: 200, End: 200}, false}, // empty, on the last point
	}
	for _, tc := range tests {
		if got := m.OverlapsRange(tc.r); got != tc.want {
			t.Errorf("OverlapsRange(%v) = %v, want %v", tc.r, got, tc.want)
		}
	}
	// With more spans than instants some spans have zero width; the chunk
	// covers the whole range, yet joins none of those.
	q := m4.Query{Tqs: 120, Tqe: 125, W: 8}
	zero := 0
	for i := 0; i < q.W; i++ {
		s := q.Span(i)
		if got := m.OverlapsRange(s); got == s.Empty() {
			t.Errorf("span %d %v: OverlapsRange = %v", i, s, got)
		}
		if s.Empty() {
			zero++
		}
	}
	if zero == 0 {
		t.Fatalf("%+v has no zero-width span", q)
	}
}

func TestDeleteCovers(t *testing.T) {
	d := Delete{Start: 10, End: 20}
	for _, tc := range []struct {
		t    int64
		want bool
	}{{9, false}, {10, true}, {15, true}, {20, true}, {21, false}} {
		if got := d.Covers(tc.t); got != tc.want {
			t.Errorf("Covers(%d) = %v, want %v", tc.t, got, tc.want)
		}
	}
}

// memRef builds sorted data as an in-memory chunk of series "s".
func memRef(data series.Series) ChunkRef {
	cols := data.Columns()
	first, last, bottom, top, _ := ComputeMeta(cols)
	return NewMemChunk(ChunkMeta{SeriesID: "s", Version: 1, First: first, Last: last, Bottom: bottom, Top: top}, cols)
}

func TestMemChunkRoundTrip(t *testing.T) {
	data := series.Series{{T: 1, V: 1}, {T: 2, V: 4}, {T: 3, V: 0}}
	cols := data.Columns()
	ref := NewMemChunk(ChunkMeta{SeriesID: "s1", Version: 7, Bottom: data[2], Top: data[1]}, cols)
	if m := ref.Meta; m.SeriesID != "s1" || m.Version != 7 || m.Count != 3 || m.TimesLen != 24 || m.ValuesLen != 24 || m.Bottom.V != 0 || m.Top.V != 4 {
		t.Errorf("meta = %+v", m)
	}
	got, err := ref.Load(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 || got.Points()[1] != data[1] {
		t.Errorf("Load = %v", got)
	}
	ts, err := ref.LoadTimes(nil)
	if err != nil {
		t.Fatal(err)
	}
	// The chunk borrows the columns: a load of the memtable costs no copy,
	// and the borrow is cap-limited, so no reader's append reaches past it.
	if &ts[0] != &cols.Times()[0] || &got.Values()[0] != &cols.Values()[0] {
		t.Error("a load copied the columns")
	}
	if cap(got.Times()) != 3 || cap(got.Values()) != 3 || cap(ts) != 3 {
		t.Errorf("borrowed columns have room past their length: caps %d, %d", cap(got.Times()), cap(got.Values()))
	}
}

func TestChunkRefCountsCost(t *testing.T) {
	ref := memRef(series.Series{{T: 1, V: 1}, {T: 2, V: 2}})
	var stats Stats
	if _, err := ref.Load(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.ChunksLoaded != 1 || stats.PointsDecoded != 2 || stats.BytesRead != 32 {
		t.Errorf("after Load: %v", &stats)
	}
	if _, err := ref.LoadTimes(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.TimeBlocksLoaded != 1 || stats.PointsDecoded != 4 || stats.BytesRead != 48 {
		t.Errorf("after LoadTimes: %v", &stats)
	}
	// The value half of a load counts as a full load, exactly like Load.
	vs, err := ref.LoadValues(&stats)
	if err != nil || len(vs) != 2 || vs[1] != 2 {
		t.Fatal(vs, err)
	}
	if stats.ChunksLoaded != 2 || stats.PointsDecoded != 6 || stats.BytesRead != 80 {
		t.Errorf("after LoadValues: %v", &stats)
	}
}

func TestChunkRefNilStats(t *testing.T) {
	ref := memRef(series.Series{{T: 1, V: 1}})
	if _, err := ref.Load(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.LoadTimes(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.LoadValues(nil); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAddReset(t *testing.T) {
	a := Stats{ChunksLoaded: 1, BytesRead: 10, IndexProbes: 3}
	b := Stats{ChunksLoaded: 2, PointsDecoded: 5, ChunksPruned: 1}
	a.Add(b)
	if a.ChunksLoaded != 3 || a.BytesRead != 10 || a.PointsDecoded != 5 || a.ChunksPruned != 1 || a.IndexProbes != 3 {
		t.Errorf("Add = %+v", a)
	}

	// Sparse adds — one non-zero field each, as a task's counters mostly
	// are — from concurrent workers still sum field by field (run under
	// -race by make check).
	var shared Stats
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				var o Stats
				f := o.fields()
				*f[(w+i)%len(f)] = int64(w + 1)
				shared.Add(o)
			}
		}(w)
	}
	wg.Wait()
	var want Stats
	f := want.fields()
	for w := 0; w < 8; w++ {
		for i := 0; i < 100; i++ {
			*f[(w+i)%len(f)] += int64(w + 1)
		}
	}
	if got := shared.Load(); got != want {
		t.Errorf("concurrent sparse Add = %+v, want %+v", got, want)
	}
}

func TestStringers(t *testing.T) {
	m := ChunkMeta{SeriesID: "s", Version: 2, Count: 5,
		First: series.Point{T: 1, V: 0}, Last: series.Point{T: 9, V: 0},
		Bottom: series.Point{T: 3, V: -1}, Top: series.Point{T: 4, V: 7}}
	if s := m.String(); !strings.Contains(s, "v2") || !strings.Contains(s, "[1,9]") {
		t.Errorf("ChunkMeta.String = %q", s)
	}
	d := Delete{SeriesID: "s", Version: 3, Start: 1, End: 2}
	if s := d.String(); !strings.Contains(s, "v3") {
		t.Errorf("Delete.String = %q", s)
	}
	var st Stats
	if st.String() == "" {
		t.Error("Stats.String empty")
	}
}

func TestInfiniteVersionIsLargest(t *testing.T) {
	if InfiniteVersion <= Version(1<<62) {
		t.Error("InfiniteVersion not larger than realistic versions")
	}
}

// InfiniteVersion is larger than any assigned version.
const InfiniteVersion Version = ^Version(0)
