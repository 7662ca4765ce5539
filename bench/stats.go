package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile of sorted by nearest rank: the smallest
// value with at least q of the samples at or below it. Empty input gives 0.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// percentileLadder is where supportedPercentile steps down to.
var percentileLadder = []float64{0.99, 0.95, 0.90, 0.75, 0.50}

// supportedPercentile lowers want to the highest percentile that still has
// ten samples beyond it among n, so a reported tail is never one or two
// outliers. The median is the floor.
func supportedPercentile(n int, want float64) float64 {
	for _, q := range percentileLadder {
		if q <= want && float64(n)*(1-q) >= 10-1e-9 {
			return q
		}
	}
	return 0.50
}

// fastestAcross takes rounds of equal length and returns, position by
// position, the lowest value any round holds there.
//
// The two-core sandboxes this runs on are not steady: with both cores in use
// a fixed allocating loop, measured second by second, ranged from 326 to 591
// iterations, whole seconds run a third slower than their neighbours, and a
// neighbour's fsyncs land on the same disk. Interference only ever adds time
// and it comes and goes, so the fastest of several passes over the same
// request says what the request costs, and the rest what the machine was
// doing meanwhile. A cost that belongs to the position — the flush that
// write triggers, the pyramid save behind it — is paid in every round and
// stays in the number.
func fastestAcross(rounds [][]float64) []float64 {
	if len(rounds) == 0 {
		return nil
	}
	out := append([]float64(nil), rounds[0]...)
	for _, r := range rounds[1:] {
		for j, v := range r {
			out[j] = min(out[j], v)
		}
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = min(m, x)
	}
	return m
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(xs, n=4) does (exclusive method), which is
// what the driver judges run-to-run spread with.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func medianDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}
