package lsm

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"m4lsm/internal/series"
)

func TestCompactMergesOverlaps(t *testing.T) {
	e := openTestEngine(t, Options{FlushThreshold: 4})
	e.Write("s1", pts(10, 1, 30, 3, 50, 5, 70, 7)...) // chunk 1
	e.Write("s1", pts(20, 2, 40, 4, 60, 6, 80, 8)...) // overlapping chunk 2
	e.Delete("s1", 40, 45)
	before, _ := e.Snapshot("s1", series.TimeRange{Start: 0, End: 1000})
	wantData := materialize(t, before, series.TimeRange{Start: 0, End: 1000})

	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	snap, _ := e.Snapshot("s1", series.TimeRange{Start: 0, End: 1000})
	// 7 surviving points at chunk size 4 -> 2 chunks, non-overlapping.
	if len(snap.Chunks) != 2 {
		t.Fatalf("chunks = %d", len(snap.Chunks))
	}
	if snap.Chunks[0].Meta.Last.T >= snap.Chunks[1].Meta.First.T {
		t.Error("compacted chunks overlap")
	}
	if len(snap.Deletes) != 0 {
		t.Errorf("deletes = %v, want folded in", snap.Deletes)
	}
	got := materialize(t, snap, series.TimeRange{Start: 0, End: 1000})
	if !reflect.DeepEqual(got, wantData) {
		t.Fatalf("data changed by compaction:\n got %v\nwant %v", got, wantData)
	}
	if e.Info().Files != 1 {
		t.Errorf("files = %d, want 1", e.Info().Files)
	}
}

func TestCompactIncludesMemtable(t *testing.T) {
	e := openTestEngine(t, Options{})
	e.Write("s1", pts(10, 1)...)
	e.Flush()
	e.Write("s1", pts(20, 2)...) // still in memtable
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	snap, _ := e.Snapshot("s1", series.TimeRange{Start: 0, End: 100})
	got := materialize(t, snap, series.TimeRange{Start: 0, End: 100})
	if !reflect.DeepEqual(got, series.Series(pts(10, 1, 20, 2))) {
		t.Fatalf("got %v", got)
	}
}

func TestCompactEmptyEngine(t *testing.T) {
	e := openTestEngine(t, Options{})
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if e.Info().Files != 0 {
		t.Errorf("files = %d", e.Info().Files)
	}
}

func TestCompactEverythingDeleted(t *testing.T) {
	e := openTestEngine(t, Options{})
	e.Write("s1", pts(10, 1, 20, 2)...)
	e.Flush()
	e.Delete("s1", 0, 100)
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	snap, _ := e.Snapshot("s1", series.TimeRange{Start: 0, End: 1000})
	if len(snap.Chunks) != 0 || len(snap.Deletes) != 0 {
		t.Errorf("snapshot after compacting deleted series: %d chunks, %d deletes",
			len(snap.Chunks), len(snap.Deletes))
	}
}

func TestCompactMultipleSeries(t *testing.T) {
	e := openTestEngine(t, Options{FlushThreshold: 2})
	e.Write("a", pts(10, 1, 20, 2)...)
	e.Write("b", pts(15, 5, 25, 6)...)
	e.Write("a", pts(10, 9)...) // overwrite
	e.Flush()
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	snapA, _ := e.Snapshot("a", series.TimeRange{Start: 0, End: 100})
	gotA := materialize(t, snapA, series.TimeRange{Start: 0, End: 100})
	if !reflect.DeepEqual(gotA, series.Series(pts(10, 9, 20, 2))) {
		t.Fatalf("a = %v", gotA)
	}
	snapB, _ := e.Snapshot("b", series.TimeRange{Start: 0, End: 100})
	gotB := materialize(t, snapB, series.TimeRange{Start: 0, End: 100})
	if !reflect.DeepEqual(gotB, series.Series(pts(15, 5, 25, 6))) {
		t.Fatalf("b = %v", gotB)
	}
}

func TestCompactSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	e, _ := Open(Options{Dir: dir})
	e.Write("s1", pts(10, 1, 20, 2)...)
	e.Flush()
	e.Delete("s1", 20, 20)
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	e.Close()
	e2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	snap, _ := e2.Snapshot("s1", series.TimeRange{Start: 0, End: 100})
	got := materialize(t, snap, series.TimeRange{Start: 0, End: 100})
	if !reflect.DeepEqual(got, series.Series(pts(10, 1))) {
		t.Fatalf("got %v", got)
	}
	if n := e2.Info().Deletes; n != 0 {
		t.Errorf("deletes after reopen = %d", n)
	}
}

func TestCompactRandomizedEquivalence(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := openTestEngine(t, Options{FlushThreshold: 8})
		for op := 0; op < 40; op++ {
			switch rng.Intn(4) {
			case 0, 1:
				n := 1 + rng.Intn(6)
				batch := make([]series.Point, n)
				for i := range batch {
					batch[i] = series.Point{T: rng.Int63n(200), V: float64(rng.Intn(50))}
				}
				e.Write("s", series.SortDedup(batch)...)
			case 2:
				e.Flush()
			case 3:
				start := rng.Int63n(200)
				e.Delete("s", start, start+rng.Int63n(30))
			}
		}
		r := series.TimeRange{Start: 0, End: 200}
		before, _ := e.Snapshot("s", r)
		want := materialize(t, before, r)
		if err := e.Compact(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		after, _ := e.Snapshot("s", r)
		got := materialize(t, after, r)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: compaction changed data:\n got %v\nwant %v", seed, got, want)
		}
	}
}

func TestCompactClosedEngine(t *testing.T) {
	e, _ := Open(Options{Dir: t.TempDir()})
	e.Close()
	if err := e.Compact(); err == nil {
		t.Error("Compact on closed engine accepted")
	}
}

func TestSnapshotSurvivesCompaction(t *testing.T) {
	e := openTestEngine(t, Options{FlushThreshold: 4})
	e.Write("s", pts(10, 1, 20, 2, 30, 3, 40, 4)...)
	snap, err := e.Snapshot("s", series.TimeRange{Start: 0, End: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	// The pre-compaction snapshot must still be readable: its chunk file
	// is unlinked but the handle is retired, not closed.
	got := materialize(t, snap, series.TimeRange{Start: 0, End: 100})
	if !reflect.DeepEqual(got, series.Series(pts(10, 1, 20, 2, 30, 3, 40, 4))) {
		t.Fatalf("snapshot after compaction: %v", got)
	}
}

// TestCompactKeepsExtremeTimestamps: compaction merges over every
// timestamp a write can carry, so acknowledged points at the int64 edges
// survive it and a reopen; the one timestamp no half-open range can name,
// math.MaxInt64, is refused at write time with a typed error.
func TestCompactKeepsExtremeTimestamps(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want := series.Series{
		{T: math.MinInt64, V: 1}, {T: math.MinInt64 + 1, V: 2},
		{T: -(1 << 62) - 1, V: 3}, {T: -(1 << 62) + 1, V: 4}, {T: -5, V: 5},
		{T: 1<<62 - 1, V: 6}, {T: 1<<62 + 1, V: 7}, {T: 1<<62 + 5, V: 8}, {T: math.MaxInt64 - 1, V: 9},
	}
	if err := e.Write("s", want...); err != nil {
		t.Fatal(err)
	}
	if err := e.Write("s", series.Point{T: math.MaxInt64, V: 10}); !errors.Is(err, ErrInvalidWrite) {
		t.Fatalf("write at MaxInt64: %v, want ErrInvalidWrite", err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	check := func(e *Engine, phase string) {
		t.Helper()
		snap, err := e.Snapshot("s", everything)
		if err != nil {
			t.Fatal(err)
		}
		if got := materialize(t, snap, everything); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %d points %v, want %d %v", phase, len(got), got, len(want), want)
		}
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	check(e, "compacted")
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	check(e2, "reopened")
}
