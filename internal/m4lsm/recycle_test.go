package m4lsm

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"sync/atomic"
	"testing"
	"unsafe"

	"m4lsm/internal/cache"
	"m4lsm/internal/m4"
	"m4lsm/internal/m4udf"
	"m4lsm/internal/mergeread"
	"m4lsm/internal/obs"
	"m4lsm/internal/reprops"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
	"m4lsm/internal/testutil"
	"m4lsm/internal/tsfile"
)

// raceEnabled is set by race_test.go in race-detector builds.
var raceEnabled bool

// TestComputeRecyclesDecodedColumns: a query hands the columns its loads
// decoded back to the chunk file's reader when it ends, so the second of
// two identical Table 4 queries decodes into the first one's columns and
// allocates less than a quarter of the bytes the first one decodes.
func TestComputeRecyclesDecodedColumns(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	// The pool is emptied by garbage collections; none runs between the
	// two queries.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	snap, _ := table4Snapshot(t, 64)
	q := fullQuery(snap, 100)
	query := func() (allocated uint64, decodedBytes int64) {
		before := snap.Stats.Load()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		start := ms.TotalAlloc
		if _, err := ComputeContext(context.Background(), snap, q, Options{}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc - start, 8 * snap.Stats.Load().Sub(before).PointsDecoded
	}
	_, decoded := query()
	allocated, _ := query()
	if decoded == 0 || 4*allocated >= uint64(decoded) {
		t.Errorf("second query allocated %d bytes, first decoded %d; want < 25%%", allocated, decoded)
	}
}

// recordingSource is a chunk file's reader whose Recycle only counts: the
// columns stay where they are.
type recordingSource struct {
	storage.ChunkSource
	recycled int
}

func (s *recordingSource) Recycle(ts []int64, vs []float64) { s.recycled++ }

// countingReader is a chunk file's reader that counts its full-chunk
// reads, so a read through a cache above it shows whether the cache
// served it. It recycles like the reader.
type countingReader struct {
	*tsfile.Reader
	reads atomic.Int64
}

func (c *countingReader) ReadChunk(meta storage.ChunkMeta) (series.Columns, error) {
	c.reads.Add(1)
	return c.Reader.ReadChunk(meta)
}

// TestSharedColumnsNeverRecycled: the columns a query reads but does not
// own — a cache's, which the next query reads again, and a memtable's —
// are never recycled. After queries over chunks behind an enabled cache
// and memtable chunks, and then many queries over the same file read cold,
// whose recycled columns the pool hands out again, every cached and
// memtable column is bit-identical to what it was (under -race, a recycled
// column would also have been poisoned), and the answers do not change.
func TestSharedColumnsNeverRecycled(t *testing.T) {
	cold, r := table4Snapshot(t, 32)
	file := &countingReader{Reader: r}
	cached := cache.Wrap(file, cache.NewLRU(1<<30))
	s := &storage.Snapshot{SeriesID: cold.SeriesID, Deletes: cold.Deletes, Stats: &storage.Stats{}, Warnings: &storage.Warnings{}}
	for _, c := range cold.Chunks {
		s.Chunks = append(s.Chunks, storage.NewChunkRef(c.Meta, cached))
	}
	// Two memtable chunks overwrite stretches of the file's data.
	full := fullQuery(cold, 1)
	for k, frac := range []int64{3, 7} {
		var rows series.Series
		at := full.Tqs + (full.Tqe-full.Tqs)*frac/10
		for i := int64(0); i < 600; i++ {
			rows = append(rows, series.Point{T: at + 1000*i, V: float64(k*1000) + float64(i%97)})
		}
		ref, err := testutil.MemChunk(s.SeriesID, storage.Version(10_000+k), rows)
		if err != nil {
			t.Fatal(err)
		}
		s.Chunks = append(s.Chunks, ref)
	}

	answer := func() (lsm, udf []m4.Aggregate, merged series.Series) {
		t.Helper()
		q := fullQuery(s, 100)
		var err error
		if lsm, err = ComputeContext(context.Background(), s, q, Options{}); err != nil {
			t.Fatal(err)
		}
		if udf, err = m4udf.ComputeContext(context.Background(), s, q, mergeread.Options{}); err != nil {
			t.Fatal(err)
		}
		if merged, err = mergeread.Merge(s, q.Range()); err != nil {
			t.Fatal(err)
		}
		return lsm, udf, merged
	}
	lsm0, udf0, merged0 := answer()
	for i := range lsm0 {
		if !m4.Equivalent(lsm0[i], udf0[i]) {
			t.Fatalf("span %d: M4-LSM %v, M4-UDF %v", i, lsm0[i], udf0[i])
		}
	}

	// What the shared sources hold now, by value.
	type held struct{ ts, vs []int64 }
	copyOf := func(cols series.Columns) held {
		h := held{ts: slices.Clone(cols.Times())}
		for _, v := range cols.Values() {
			h.vs = append(h.vs, int64(math.Float64bits(v)))
		}
		return h
	}
	want := map[storage.Version]held{}
	read := func(c storage.ChunkRef) (series.Columns, bool) {
		if c.Meta.Version >= 10_000 {
			cols, err := c.Load(nil)
			return cols, err == nil
		}
		before := file.reads.Load()
		cols, err := cached.ReadChunk(c.Meta)
		return cols, err == nil && file.reads.Load() == before
	}
	for _, c := range s.Chunks {
		if cols, ok := read(c); ok {
			want[c.Meta.Version] = copyOf(cols)
		}
	}
	if len(want) < 10 {
		t.Fatalf("only %d chunks cached or in the memtable after the queries", len(want))
	}

	// Cold queries over the same file recycle their columns and decode
	// into recycled ones.
	for i := 0; i < 4; i++ {
		for _, w := range []int{100, 1000} {
			if _, err := ComputeContext(context.Background(), cold, fullQuery(cold, w), Options{}); err != nil {
				t.Fatal(err)
			}
		}
	}

	for _, c := range s.Chunks {
		w, ok := want[c.Meta.Version]
		if !ok {
			continue
		}
		cols, ok := read(c)
		if !ok {
			t.Fatalf("chunk v%d left the cache", c.Meta.Version)
		}
		if got := copyOf(cols); !reflect.DeepEqual(got, w) {
			t.Errorf("chunk v%d: shared columns changed after other queries ran", c.Meta.Version)
		}
	}
	lsm1, udf1, merged1 := answer()
	if !reflect.DeepEqual(lsm1, lsm0) || !reflect.DeepEqual(udf1, udf0) || !slices.Equal(merged1, merged0) {
		t.Error("answers over cached and memtable chunks changed after other queries ran")
	}
}

// TestRecycleReachesOnlyUncachedSources: queries recycle straight into the
// reader and through a disabled cache, and never through an enabled one.
func TestRecycleReachesOnlyUncachedSources(t *testing.T) {
	cold, r := table4Snapshot(t, 16)
	for _, tc := range []struct {
		name string
		lru  *cache.LRU
		want bool
	}{
		{"nil cache", nil, true},
		{"disabled cache", cache.NewLRU(0), true},
		{"enabled cache", cache.NewLRU(1 << 30), false},
	} {
		rec := &recordingSource{ChunkSource: r}
		src := cache.Wrap(rec, tc.lru)
		s := &storage.Snapshot{SeriesID: cold.SeriesID, Deletes: cold.Deletes, Stats: &storage.Stats{}, Warnings: &storage.Warnings{}}
		for _, c := range cold.Chunks {
			s.Chunks = append(s.Chunks, storage.NewChunkRef(c.Meta, src))
		}
		if _, err := ComputeContext(context.Background(), s, fullQuery(s, 100), Options{}); err != nil {
			t.Fatal(err)
		}
		if _, err := mergeread.Merge(s, fullQuery(s, 1).Range()); err != nil {
			t.Fatal(err)
		}
		if got := rec.recycled > 0; got != tc.want {
			t.Errorf("%s: %d columns recycled, want recycling %v", tc.name, rec.recycled, tc.want)
		}
	}
}

// TestMeteredCountersExact: counters are flushed from the query's one
// scratch once per series and wave, not per task, yet each series' counters
// are final when a metered and traced batch returns, equal to an unmetered
// run's.
func TestMeteredCountersExact(t *testing.T) {
	a, _ := table4Snapshot(t, 16)
	b, _ := table4Snapshot(t, 24)
	q := fullQuery(b, 200)
	stats := func(snaps ...*storage.Snapshot) []storage.Stats {
		out := make([]storage.Stats, len(snaps))
		for i, s := range snaps {
			out[i] = s.Stats.Load()
		}
		return out
	}
	reset := func(snaps ...*storage.Snapshot) {
		for _, s := range snaps {
			*s.Stats = storage.Stats{}
		}
	}
	if _, err := ComputeMultiContext(context.Background(), []*storage.Snapshot{a, b}, q, Options{}); err != nil {
		t.Fatal(err)
	}
	want := stats(a, b)
	reset(a, b)

	ctx, _ := obs.WithTrace(context.Background())
	if _, err := ComputeMultiContext(ctx, []*storage.Snapshot{a, b}, q, Options{Metrics: obs.NewRegistry()}); err != nil {
		t.Fatal(err)
	}
	if got := stats(a, b); !reflect.DeepEqual(got, want) {
		t.Errorf("counters metered: %+v, want %+v", got, want)
	}
}

// TestReduceAllocatesItsPoints: once warm, an M4 query over cell-aligned
// windows, answered from pyramid cells alone, allocates the points it
// returns and at most 8 KiB besides: its plan tables, chunk states,
// scratch and aggregates go back to their pools when it ends.
func TestReduceAllocatesItsPoints(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	e := alignedEngine(t)
	var qs []m4.Query
	var snaps [][]*storage.Snapshot
	for off := int64(0); off+1<<16 <= alignedPoints; off += 1 << 13 {
		q := m4.Query{Tqs: off, Tqe: off + 1<<16, W: 1024}
		qs, snaps = append(qs, q), append(snaps, []*storage.Snapshot{alignedSnapshot(t, e, q)})
	}
	reduce := func(i int) series.Series {
		out, err := ReduceMultiContext(context.Background(), snaps[i], qs[i], reprops.Spec{}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return out[0]
	}
	for i := range qs {
		reduce(i)
	}
	const runs = 64
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	start, returned := ms.TotalAlloc, 0
	for r := 0; r < runs; r++ {
		returned += int(unsafe.Sizeof(series.Point{})) * cap(reduce(r%len(qs)))
	}
	runtime.ReadMemStats(&ms)
	perQuery, points := int(ms.TotalAlloc-start)/runs, returned/runs
	if perQuery > points+8<<10 {
		t.Errorf("a warm aligned query allocated %d B, of which its points are %d B; want at most 8 KiB besides", perQuery, points)
	}
	if loads := snaps[0][0].Stats.Load().ChunksLoaded; loads != 0 {
		t.Fatalf("aligned window loaded %d chunks", loads)
	}
}
