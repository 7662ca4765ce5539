package m4ql

import (
	"context"
	"math"
	"testing"

	"m4lsm/internal/series"
)

// raceEnabled is set by race_test.go in race-detector builds.
var raceEnabled bool

// TestReleasedOutcomeReadsPoison: under the race detector, the points and
// aggregates of an Outcome read after Release are poison (timestamps
// math.MinInt64, values NaN, no aggregate Empty), so a surface that reads
// its answer after handing it back gets a wrong answer that difftest and
// the server tests report. This test is that read, done on purpose.
func TestReleasedOutcomeReadsPoison(t *testing.T) {
	if !raceEnabled {
		t.Skip("released outputs are poisoned only in race-detector builds")
	}
	e := newEngine(t)
	for i := 0; i < 1000; i++ {
		if err := e.Write("root.s1", series.Point{T: int64(i), V: float64(i % 17)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	poisoned := func(p series.Point) bool { return p.T == math.MinInt64 && math.IsNaN(p.V) }
	for _, q := range []string{
		"SELECT M4(*) FROM root.s1 WHERE time >= 0 AND time < 1000 GROUP BY SPANS(64) REPRESENT m4",
		"SELECT M4(*) FROM root.s1 WHERE time >= 0 AND time < 1000 GROUP BY SPANS(64)",
	} {
		out, err := Exec(context.Background(), e, mustParse(t, q))
		if err != nil {
			t.Fatal(err)
		}
		pts, aggs := out.Outputs[0].Points, out.Outputs[0].Aggregates
		if len(pts)+len(aggs) == 0 {
			t.Fatalf("%s: empty outcome", q)
		}
		out.Release()
		if out.Outputs[0].Points != nil || out.Outputs[0].Aggregates != nil {
			t.Errorf("%s: Release left the outputs in the outcome", q)
		}
		for i, p := range pts {
			if !poisoned(p) {
				t.Fatalf("%s: point %d after Release: %+v, want poison", q, i, p)
			}
		}
		for i, a := range aggs {
			if a.Empty || !poisoned(a.First) || !poisoned(a.Last) || !poisoned(a.Bottom) || !poisoned(a.Top) {
				t.Fatalf("%s: aggregate %d after Release: %+v, want poison", q, i, a)
			}
		}
	}
}
