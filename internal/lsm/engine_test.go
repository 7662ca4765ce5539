package lsm

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"m4lsm/internal/series"
	"m4lsm/internal/storage"
	"m4lsm/internal/tsfile"
)

func openTestEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	e, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func pts(tvs ...int64) []series.Point {
	out := make([]series.Point, 0, len(tvs)/2)
	for i := 0; i+1 < len(tvs); i += 2 {
		out = append(out, series.Point{T: tvs[i], V: float64(tvs[i+1])})
	}
	return out
}

// materialize merges a snapshot naively: latest version wins per timestamp,
// deletes applied by version. Used as the ground truth in engine tests.
func materialize(t *testing.T, snap *storage.Snapshot, r series.TimeRange) series.Series {
	t.Helper()
	type versioned struct {
		p   series.Point
		ver storage.Version
	}
	best := map[int64]versioned{}
	for _, c := range snap.Chunks {
		data, err := c.Load(snap.Stats)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range data.Points() {
			if cur, ok := best[p.T]; !ok || c.Meta.Version > cur.ver {
				best[p.T] = versioned{p, c.Meta.Version}
			}
		}
	}
	for _, d := range snap.Deletes {
		for tt, v := range best {
			if d.Version > v.ver && d.Covers(tt) {
				delete(best, tt)
			}
		}
	}
	var out series.Series
	for _, v := range best {
		if r.Contains(v.p.T) {
			out = append(out, v.p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}

func TestWriteFlushQuery(t *testing.T) {
	e := openTestEngine(t, Options{})
	if err := e.Write("s1", pts(10, 1, 20, 2, 30, 3)...); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	snap, err := e.Snapshot("s1", series.TimeRange{Start: 0, End: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Chunks) != 1 {
		t.Fatalf("chunks = %d", len(snap.Chunks))
	}
	got := materialize(t, snap, series.TimeRange{Start: 0, End: 100})
	want := series.Series(pts(10, 1, 20, 2, 30, 3))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestMemtableVisibleWithoutFlush(t *testing.T) {
	e := openTestEngine(t, Options{})
	e.Write("s1", pts(10, 1, 5, 9)...)
	snap, err := e.Snapshot("s1", series.TimeRange{Start: 0, End: 100})
	if err != nil {
		t.Fatal(err)
	}
	got := materialize(t, snap, series.TimeRange{Start: 0, End: 100})
	want := series.Series(pts(5, 9, 10, 1))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestOverwriteAcrossChunks(t *testing.T) {
	e := openTestEngine(t, Options{})
	e.Write("s1", pts(10, 1, 20, 2)...)
	e.Flush()
	e.Write("s1", pts(20, 99, 30, 3)...) // overwrites t=20
	e.Flush()
	snap, _ := e.Snapshot("s1", series.TimeRange{Start: 0, End: 100})
	// The second batch splits: t=20 is out of order (unsequence chunk),
	// t=30 extends the sequence space.
	if len(snap.Chunks) != 3 {
		t.Fatalf("chunks = %d", len(snap.Chunks))
	}
	if e.Info().UnseqFiles != 1 {
		t.Errorf("unseq files = %d, want 1", e.Info().UnseqFiles)
	}
	got := materialize(t, snap, series.TimeRange{Start: 0, End: 100})
	want := series.Series(pts(10, 1, 20, 99, 30, 3))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestDeleteSemantics(t *testing.T) {
	e := openTestEngine(t, Options{})
	e.Write("s1", pts(10, 1, 20, 2, 30, 3)...)
	e.Flush()
	if err := e.Delete("s1", 15, 25); err != nil {
		t.Fatal(err)
	}
	// A write after the delete at a covered timestamp must survive.
	e.Write("s1", pts(22, 7)...)
	e.Flush()
	snap, _ := e.Snapshot("s1", series.TimeRange{Start: 0, End: 100})
	got := materialize(t, snap, series.TimeRange{Start: 0, End: 100})
	want := series.Series(pts(10, 1, 22, 7, 30, 3))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestDeleteAppliesToMemtable(t *testing.T) {
	e := openTestEngine(t, Options{})
	e.Write("s1", pts(10, 1, 20, 2)...)
	e.Delete("s1", 20, 20) // deletes buffered point
	e.Write("s1", pts(25, 5)...)
	snap, _ := e.Snapshot("s1", series.TimeRange{Start: 0, End: 100})
	got := materialize(t, snap, series.TimeRange{Start: 0, End: 100})
	want := series.Series(pts(10, 1, 25, 5))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestDeleteValidation(t *testing.T) {
	e := openTestEngine(t, Options{})
	if err := e.Delete("s1", 10, 5); err == nil {
		t.Error("inverted delete accepted")
	}
}

func TestWriteValidation(t *testing.T) {
	e := openTestEngine(t, Options{})
	if err := e.Write("", pts(1, 1)...); err == nil {
		t.Error("empty series id accepted")
	}
	if err := e.Write("s", series.Point{T: 1, V: nan()}); err == nil {
		t.Error("NaN accepted")
	}
	if err := e.Write("s"); err != nil {
		t.Error("empty batch must be a no-op:", err)
	}
}

func nan() float64 {
	var z float64
	return z / z
}

func TestAutoFlushAtThreshold(t *testing.T) {
	e := openTestEngine(t, Options{FlushThreshold: 10})
	for i := 0; i < 25; i++ {
		if err := e.Write("s1", series.Point{T: int64(i), V: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	info := e.Info()
	if info.Files != 2 {
		t.Errorf("files = %d, want 2 auto-flushes", info.Files)
	}
	if info.MemtablePoints != 5 {
		t.Errorf("memtable points = %d, want 5", info.MemtablePoints)
	}
}

func TestBigBatchSplitsIntoChunks(t *testing.T) {
	e := openTestEngine(t, Options{FlushThreshold: 100})
	batch := make([]series.Point, 350)
	for i := range batch {
		batch[i] = series.Point{T: int64(i), V: float64(i)}
	}
	if err := e.Write("s1", batch...); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	snap, _ := e.Snapshot("s1", series.TimeRange{Start: 0, End: 1000})
	if len(snap.Chunks) != 4 { // 100+100+100+50
		t.Fatalf("chunks = %d, want 4", len(snap.Chunks))
	}
	for i, c := range snap.Chunks[:3] {
		if c.Meta.Count != 100 {
			t.Errorf("chunk %d count = %d", i, c.Meta.Count)
		}
	}
	if snap.Chunks[3].Meta.Count != 50 {
		t.Errorf("last chunk count = %d", snap.Chunks[3].Meta.Count)
	}
	got := materialize(t, snap, series.TimeRange{Start: 0, End: 1000})
	if len(got) != 350 {
		t.Fatalf("materialized %d points", len(got))
	}
}

func TestSnapshotFiltersByRange(t *testing.T) {
	e := openTestEngine(t, Options{FlushThreshold: 5})
	for i := 0; i < 20; i++ {
		e.Write("s1", series.Point{T: int64(i * 10), V: 1})
	}
	e.Flush()
	e.Delete("s1", 0, 5)     // overlaps query? no (query starts at 50)
	e.Delete("s1", 100, 110) // overlaps
	snap, _ := e.Snapshot("s1", series.TimeRange{Start: 50, End: 120})
	for _, c := range snap.Chunks {
		if !c.Meta.OverlapsRange(series.TimeRange{Start: 50, End: 120}) {
			t.Errorf("chunk %v outside range", c.Meta)
		}
	}
	if len(snap.Deletes) != 1 || snap.Deletes[0].Start != 100 {
		t.Errorf("deletes = %v", snap.Deletes)
	}
}

func TestWALRecovery(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir, SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	e.Write("s1", pts(10, 1, 20, 2)...)
	e.Delete("s1", 20, 20)
	e.Write("s1", pts(30, 3)...)
	// Simulate crash: no Flush, no Close. Reopen from disk state.
	e.Kill()

	e2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	snap, _ := e2.Snapshot("s1", series.TimeRange{Start: 0, End: 100})
	got := materialize(t, snap, series.TimeRange{Start: 0, End: 100})
	want := series.Series(pts(10, 1, 30, 3))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
}

func TestReopenAfterCleanClose(t *testing.T) {
	dir := t.TempDir()
	e, _ := Open(Options{Dir: dir})
	e.Write("s1", pts(10, 1, 20, 2)...)
	e.Write("s2", pts(5, 5)...)
	if err := e.Close(); err != nil { // Close flushes
		t.Fatal(err)
	}
	e2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if ids := e2.SeriesIDs(); !reflect.DeepEqual(ids, []string{"s1", "s2"}) {
		t.Fatalf("SeriesIDs = %v", ids)
	}
	snap, _ := e2.Snapshot("s1", series.TimeRange{Start: 0, End: 100})
	got := materialize(t, snap, series.TimeRange{Start: 0, End: 100})
	if !reflect.DeepEqual(got, series.Series(pts(10, 1, 20, 2))) {
		t.Fatalf("got %v", got)
	}
}

func TestVersionMonotonicAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	e, _ := Open(Options{Dir: dir})
	e.Write("s1", pts(10, 1)...)
	e.Close()
	e2, _ := Open(Options{Dir: dir})
	defer e2.Close()
	v1 := e2.Info().NextVersion
	e2.Write("s1", pts(10, 2)...) // overwrite after reopen
	e2.Flush()
	snap, _ := e2.Snapshot("s1", series.TimeRange{Start: 0, End: 100})
	got := materialize(t, snap, series.TimeRange{Start: 0, End: 100})
	if len(got) != 1 || got[0].V != 2 {
		t.Fatalf("overwrite after reopen lost: %v (nextVer was %d)", got, v1)
	}
}

func TestQuarantineCorruptFlushFile(t *testing.T) {
	dir := t.TempDir()
	e, _ := Open(Options{Dir: dir, SyncWAL: true})
	e.Write("s1", pts(10, 1)...)
	e.Close()
	// Corrupt the flushed file's footer magic: simulates a crash mid-flush.
	files, _ := filepath.Glob(filepath.Join(dir, "*.tsf"))
	if len(files) != 1 {
		t.Fatalf("files = %v", files)
	}
	raw, _ := os.ReadFile(files[0])
	os.WriteFile(files[0], raw[:len(raw)-2], 0o644)
	e2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if n := e2.Info().Files; n != 0 {
		t.Errorf("corrupt file loaded (files=%d)", n)
	}
	if _, err := os.Stat(files[0] + ".bad"); err != nil {
		t.Errorf("corrupt file not quarantined: %v", err)
	}
}

func TestDisableWAL(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir, DisableWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	e.Write("s1", pts(10, 1)...)
	e.Flush()
	e.Close()
	if _, err := os.Stat(filepath.Join(dir, "wal")); !os.IsNotExist(err) {
		t.Error("wal file created despite DisableWAL")
	}
	e2, _ := Open(Options{Dir: dir})
	defer e2.Close()
	snap, _ := e2.Snapshot("s1", series.TimeRange{Start: 0, End: 100})
	if len(snap.Chunks) != 1 {
		t.Errorf("chunks = %d", len(snap.Chunks))
	}
}

func TestClosedEngineRejectsOps(t *testing.T) {
	e, _ := Open(Options{Dir: t.TempDir()})
	e.Close()
	if err := e.Write("s", pts(1, 1)...); err == nil {
		t.Error("Write after Close accepted")
	}
	if err := e.Delete("s", 1, 2); err == nil {
		t.Error("Delete after Close accepted")
	}
	if _, err := e.Snapshot("s", series.TimeRange{Start: 0, End: 1}); err == nil {
		t.Error("Snapshot after Close accepted")
	}
	if err := e.Flush(); err == nil {
		t.Error("Flush after Close accepted")
	}
	if err := e.Close(); err != nil {
		t.Error("double Close:", err)
	}
}

func TestOutOfOrderWritesProduceOverlappingChunks(t *testing.T) {
	e := openTestEngine(t, Options{FlushThreshold: 4})
	e.Write("s1", pts(100, 1, 110, 1, 120, 1, 130, 1)...) // flushes (sequence)
	e.Write("s1", pts(105, 2, 115, 2, 125, 2, 135, 2)...) // flushes: 105-125 unseq, 135 seq
	snap, _ := e.Snapshot("s1", series.TimeRange{Start: 0, End: 1000})
	if len(snap.Chunks) != 3 {
		t.Fatalf("chunks = %d", len(snap.Chunks))
	}
	// The unsequence chunk must overlap the first sequence chunk.
	a, b := snap.Chunks[0].Meta, snap.Chunks[1].Meta
	if a.Last.T < b.First.T || b.Last.T < a.First.T {
		t.Errorf("unseq chunk does not overlap: %v vs %v", a, b)
	}
	// Sequence chunks never overlap each other.
	if c := snap.Chunks[2].Meta; c.First.T <= a.Last.T {
		t.Errorf("sequence chunks overlap: %v vs %v", a, c)
	}
	got := materialize(t, snap, series.TimeRange{Start: 0, End: 1000})
	if len(got) != 8 {
		t.Fatalf("materialized %d points", len(got))
	}
}

// TestSequenceChunksNeverOverlap is the seq/unseq space invariant: across
// random out-of-order workloads, chunks from sequence files are pairwise
// disjoint in time.
func TestSequenceChunksNeverOverlap(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		e, err := Open(Options{Dir: dir, FlushThreshold: 8})
		if err != nil {
			t.Fatal(err)
		}
		for op := 0; op < 60; op++ {
			n := 1 + rng.Intn(6)
			batch := make([]series.Point, n)
			for i := range batch {
				batch[i] = series.Point{T: rng.Int63n(500), V: 1}
			}
			e.Write("s", series.SortDedup(batch)...)
			if rng.Intn(5) == 0 {
				e.Flush()
			}
		}
		e.Flush()
		e.Close()
		// Inspect the files directly: collect seq chunk intervals.
		files, _ := filepath.Glob(filepath.Join(dir, "*.seq.tsf"))
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, f := range files {
			r, err := tsfile.Open(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range r.Metas() {
				ivs = append(ivs, iv{m.First.T, m.Last.T})
			}
			r.Close()
		}
		for i := range ivs {
			for j := i + 1; j < len(ivs); j++ {
				if ivs[i].lo <= ivs[j].hi && ivs[j].lo <= ivs[i].hi {
					t.Fatalf("seed %d: sequence chunks overlap: %v vs %v", seed, ivs[i], ivs[j])
				}
			}
		}
	}
}

func TestInfo(t *testing.T) {
	e := openTestEngine(t, Options{})
	e.Write("s1", pts(1, 1, 2, 2)...)
	e.Delete("s1", 5, 6)
	info := e.Info()
	if info.MemtablePoints != 2 || info.Deletes != 1 || info.Files != 0 {
		t.Errorf("info = %+v", info)
	}
}

func TestSeqTrackingNegativeTimestampsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	e, _ := Open(Options{Dir: dir})
	e.Write("s", pts(-100, 1, -50, 2)...)
	e.Close()
	e2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	// -70 is out of order relative to the flushed max (-50); it must land
	// in the unsequence space even though all timestamps are negative.
	e2.Write("s", pts(-70, 3)...)
	if err := e2.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := e2.Info().UnseqFiles; got != 1 {
		t.Errorf("unseq files = %d, want 1 (negative-time ordering lost on reopen)", got)
	}
}
