package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0.50, 5}, {0.90, 9}, {0.95, 10}, {0.99, 10}, {0.0, 1}, {1.0, 10}, {0.11, 2},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// A percentile is only reported with ten samples beyond it.
func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		got  float64
	}{
		{n: 1000, want: 0.99, got: 0.99},
		{n: 999, want: 0.99, got: 0.95},
		{n: 200, want: 0.99, got: 0.95},
		{n: 200, want: 0.95, got: 0.95},
		{n: 199, want: 0.95, got: 0.90},
		{n: 100, want: 0.99, got: 0.90},
		{n: 99, want: 0.99, got: 0.75},
		{n: 40, want: 0.95, got: 0.75},
		{n: 39, want: 0.95, got: 0.50},
		{n: 3, want: 0.99, got: 0.50},
		{n: 5000, want: 0.95, got: 0.95},
	} {
		if got := supportedPercentile(c.n, c.want); got != c.got {
			t.Errorf("supportedPercentile(%d, %v) = %v, want %v", c.n, c.want, got, c.got)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which
// the driver uses to judge run-to-run spread.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{2, 4}, 1.5, 3, 4.5},
		{[]float64{5, 1, 3}, 1, 3, 5},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// A stall one round saw at a position is the machine's and drops out; a cost
// every round pays there stays.
func TestFastestAcrossKeepsWhatEveryRoundPays(t *testing.T) {
	rounds := [][]float64{
		{1.2, 52, 90},
		{40, 51, 3.1},
		{1.1, 53, 3.2},
	}
	got := fastestAcross(rounds)
	for j, want := range []float64{1.1, 51, 3.1} {
		if got[j] != want {
			t.Errorf("position %d: %v, want %v", j, got[j], want)
		}
	}
	if rounds[0][0] != 1.2 {
		t.Error("fastestAcross changed its input")
	}
	if fastestAcross(nil) != nil {
		t.Error("no rounds must give no positions")
	}
}
