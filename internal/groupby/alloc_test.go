package groupby

import (
	"context"
	"math/rand"
	"testing"

	"m4lsm/internal/lsm"
	"m4lsm/internal/m4"
	"m4lsm/internal/m4lsm"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
)

// raceEnabled is set by race_test.go in race-detector builds.
var raceEnabled bool

// TestEnvelopeAllocsDoNotScaleWithSpans: a warm envelope-only GROUP BY over
// a window the pyramid answers allocates what it returns, the rows and one
// backing slice of their values, whatever the number of spans: the
// operator's aggregates go back to its pool.
func TestEnvelopeAllocsDoNotScaleWithSpans(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const points = 1 << 17
	e, err := lsm.Open(lsm.Options{Dir: t.TempDir(), DisableWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(1))
	v := 0.0
	for off := 0; off < points; off += 4096 {
		batch := make(series.Series, 4096)
		for i := range batch {
			v += rng.Float64()*2 - 1
			batch[i] = series.Point{T: int64(off + i), V: v}
		}
		if err := e.Write("s", batch...); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	fns := []Func{Min, Max, First, Last}
	allocs := func(w int) float64 {
		q := m4.Query{Tqs: 0, Tqe: points, W: w}
		snap, err := e.Snapshot("s", q.Range())
		if err != nil {
			t.Fatal(err)
		}
		snaps := []*storage.Snapshot{snap}
		n := testing.AllocsPerRun(10, func() {
			outs, err := Compute(context.Background(), snaps, q, fns, m4lsm.Options{})
			if err != nil || len(outs[0]) != w {
				t.Fatalf("%d rows, err %v; want %d", len(outs[0]), err, w)
			}
		})
		if st := snap.Stats.Load(); st.ChunksLoaded != 0 || st.PyramidSpans == 0 {
			t.Fatalf("w=%d: %d loads, %d pyramid spans; want the pyramid alone", w, st.ChunksLoaded, st.PyramidSpans)
		}
		return n
	}
	few, many := allocs(256), allocs(1024)
	if many > few+2 || many < few-2 {
		t.Errorf("allocations per GROUP BY: %v at w=256, %v at w=1024; want the same ±2", few, many)
	}
}
