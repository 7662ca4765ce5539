package mergeread

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"m4lsm/internal/series"
	"m4lsm/internal/storage"
	"m4lsm/internal/testutil"
)

// buildSnapshot assembles a snapshot from explicit chunks and deletes.
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

func TestMergeSingleChunk(t *testing.T) {
	snap := buildSnapshot(t, map[storage.Version]series.Series{
		1: {{T: 10, V: 1}, {T: 20, V: 2}},
	}, nil)
	got, err := Merge(snap, series.TimeRange{Start: 0, End: 100})
	if err != nil {
		t.Fatal(err)
	}
	want := series.Series{{T: 10, V: 1}, {T: 20, V: 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v", got)
	}
}

func TestMergePaperExample(t *testing.T) {
	// Figure 5: C1 (black dots), C3 (white dots) overlapping, D2 deleting
	// a middle range of C1 only. Point PA in C1 is overwritten by PB in
	// C3; PC in C1 is deleted by D2.
	c1 := series.Series{{T: 10, V: 5}, {T: 20, V: 6}, {T: 30, V: 4}, {T: 40, V: 7}, {T: 50, V: 5}, {T: 60, V: 3}}
	c3 := series.Series{{T: 40, V: 1}, {T: 55, V: 2}, {T: 65, V: 2}, {T: 75, V: 4}, {T: 85, V: 6}, {T: 95, V: 5}, {T: 99, V: 7}}
	d2 := storage.Delete{SeriesID: "s", Version: 2, Start: 18, End: 24} // covers t=20 (PC)
	snap := buildSnapshot(t, map[storage.Version]series.Series{1: c1, 3: c3}, []storage.Delete{d2})
	got, err := Merge(snap, series.TimeRange{Start: 0, End: 100})
	if err != nil {
		t.Fatal(err)
	}
	// 6 + 7 points, minus PC (deleted), minus PA (t=40 of C1 overwritten
	// by C3's value 1) = 11 latest points.
	if len(got) != 11 {
		t.Fatalf("got %d points, want 11 (Example 2.8)", len(got))
	}
	at := map[int64]float64{}
	for _, p := range got {
		at[p.T] = p.V
	}
	if v, ok := at[40]; !ok || v != 1 {
		t.Errorf("t=40 = %v, want overwrite value 1", v)
	}
	if _, ok := at[20]; ok {
		t.Error("deleted point t=20 survived")
	}
}

func TestMergeDeleteOnlyAffectsOlderVersions(t *testing.T) {
	// Figure 4: D2 works on C1 but not C3.
	c1 := series.Series{{T: 10, V: 1}, {T: 20, V: 1}}
	c3 := series.Series{{T: 12, V: 2}, {T: 22, V: 2}}
	d2 := storage.Delete{SeriesID: "s", Version: 2, Start: 0, End: 100}
	snap := buildSnapshot(t, map[storage.Version]series.Series{1: c1, 3: c3}, []storage.Delete{d2})
	got, _ := Merge(snap, series.TimeRange{Start: 0, End: 100})
	want := series.Series{{T: 12, V: 2}, {T: 22, V: 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestMergeRangeRestriction(t *testing.T) {
	snap := buildSnapshot(t, map[storage.Version]series.Series{
		1: {{T: 10, V: 1}, {T: 20, V: 2}, {T: 30, V: 3}, {T: 40, V: 4}},
	}, nil)
	got, _ := Merge(snap, series.TimeRange{Start: 20, End: 40})
	want := series.Series{{T: 20, V: 2}, {T: 30, V: 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestMergeEmptyRange(t *testing.T) {
	snap := buildSnapshot(t, map[storage.Version]series.Series{1: {{T: 10, V: 1}}}, nil)
	got, _ := Merge(snap, series.TimeRange{Start: 50, End: 60})
	if len(got) != 0 {
		t.Fatalf("got %v", got)
	}
}

func TestMergeTripleOverwrite(t *testing.T) {
	snap := buildSnapshot(t, map[storage.Version]series.Series{
		1: {{T: 10, V: 1}},
		2: {{T: 10, V: 2}},
		5: {{T: 10, V: 5}},
	}, nil)
	got, _ := Merge(snap, series.TimeRange{Start: 0, End: 100})
	if len(got) != 1 || got[0].V != 5 {
		t.Fatalf("got %v, want latest value 5", got)
	}
}

func TestMergeDeleteThenRewrite(t *testing.T) {
	// Delete at version 2 kills v1's point; the version-3 rewrite survives.
	snap := buildSnapshot(t, map[storage.Version]series.Series{
		1: {{T: 10, V: 1}},
		3: {{T: 10, V: 3}},
	}, []storage.Delete{{SeriesID: "s", Version: 2, Start: 10, End: 10}})
	got, _ := Merge(snap, series.TimeRange{Start: 0, End: 100})
	if len(got) != 1 || got[0].V != 3 {
		t.Fatalf("got %v, want rewrite value 3", got)
	}
}

func TestMergeAllDeleted(t *testing.T) {
	snap := buildSnapshot(t, map[storage.Version]series.Series{
		1: {{T: 10, V: 1}, {T: 20, V: 2}},
	}, []storage.Delete{{SeriesID: "s", Version: 9, Start: 0, End: 100}})
	got, _ := Merge(snap, series.TimeRange{Start: 0, End: 100})
	if len(got) != 0 {
		t.Fatalf("got %v, want empty", got)
	}
}

func TestIteratorStreaming(t *testing.T) {
	snap := buildSnapshot(t, map[storage.Version]series.Series{
		1: {{T: 10, V: 1}, {T: 30, V: 3}},
		2: {{T: 20, V: 2}},
	}, nil)
	var it *Iterator
	err := Read(context.Background(), []*storage.Snapshot{snap}, "", Options{}, func(_ int, l *Loaded, _ *Clock) error {
		it = l.Iterator(series.TimeRange{Start: 0, End: 100})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var ts []int64
	for {
		p, ok := it.Next()
		if !ok {
			break
		}
		ts = append(ts, p.T)
	}
	if !reflect.DeepEqual(ts, []int64{10, 20, 30}) {
		t.Fatalf("order = %v", ts)
	}
	// Exhausted iterator keeps returning false.
	if _, ok := it.Next(); ok {
		t.Error("Next after exhaustion returned a point")
	}
}

func TestMergeAgainstNaiveProperty(t *testing.T) {
	for seed := int64(0); seed < 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		snap := testutil.RandomSnapshot(rng, testutil.DefaultGenConfig)
		r := series.TimeRange{Start: rng.Int63n(60), End: rng.Int63n(120) + 30}
		want, err := testutil.NaiveMerge(snap, r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Merge(snap, r)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d range %v:\n got %v\nwant %v", seed, r, got, want)
		}
	}
}

func TestMergedOutputIsSorted(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed + 1000))
		snap := testutil.RandomSnapshot(rng, testutil.DefaultGenConfig)
		got, err := Merge(snap, series.TimeRange{Start: 0, End: 1 << 40})
		if err != nil {
			t.Fatal(err)
		}
		if err := got.Columns().Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestMergeCountsLoads(t *testing.T) {
	snap := buildSnapshot(t, map[storage.Version]series.Series{
		1: {{T: 10, V: 1}},
		2: {{T: 20, V: 2}},
	}, nil)
	if _, err := Merge(snap, series.TimeRange{Start: 0, End: 100}); err != nil {
		t.Fatal(err)
	}
	if snap.Stats.ChunksLoaded != 2 {
		t.Errorf("ChunksLoaded = %d, want 2 (baseline loads everything)", snap.Stats.ChunksLoaded)
	}
}
