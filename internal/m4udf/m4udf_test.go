package m4udf

import (
	"math/rand"
	"testing"

	"m4lsm/internal/m4"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
	"m4lsm/internal/testutil"
)

func TestComputeMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		snap := testutil.RandomSnapshot(rng, testutil.DefaultGenConfig)
		q := m4.Query{Tqs: rng.Int63n(60), Tqe: rng.Int63n(60) + 70, W: 1 + rng.Intn(10)}
		merged, err := testutil.NaiveMerge(snap, q.Range())
		if err != nil {
			t.Fatal(err)
		}
		want, err := m4.ComputeSeries(q, merged)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Compute(snap, q)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i := range got {
			// The UDF scans the merged series, so results must match
			// exactly, not just up to visualization equivalence.
			if got[i] != want[i] {
				t.Fatalf("seed %d span %d: got %v, want %v", seed, i, got[i], want[i])
			}
		}
	}
}

func TestComputeLoadsEveryChunk(t *testing.T) {
	stats := &storage.Stats{}
	snap := &storage.Snapshot{SeriesID: "s", Stats: stats}
	for v := storage.Version(1); v <= 5; v++ {
		ref, err := testutil.MemChunk("s", v, series.Series{{T: int64(v) * 10, V: 1}})
		if err != nil {
			t.Fatal(err)
		}
		snap.Chunks = append(snap.Chunks, ref)
	}
	if _, err := Compute(snap, m4.Query{Tqs: 0, Tqe: 100, W: 2}); err != nil {
		t.Fatal(err)
	}
	if stats.ChunksLoaded != 5 {
		t.Errorf("loads = %d, want 5: the baseline always loads everything", stats.ChunksLoaded)
	}
}

func TestComputeInvalidQuery(t *testing.T) {
	snap := &storage.Snapshot{SeriesID: "s"}
	if _, err := Compute(snap, m4.Query{Tqs: 0, Tqe: 0, W: 1}); err == nil {
		t.Error("invalid query accepted")
	}
}
