// Package reprops defines the representation operators the engine can
// execute — M4 (the paper's FP/LP/BP/TP), MinMax, LTTB and MinMaxLTTB —
// as data the whole stack shares: the m4ql parser produces a Spec, the
// planner dispatches on it, the HTTP surface parses it from parameters,
// and the differential harness replays it against the Reduce oracle below.
//
// The reference algorithms here are the single source of truth for what
// each reduction means:
//
//   - MinMaxPoints is THE MinMax implementation: per span, the bottom and
//     top points in time order, deduplicated when one point is both. Both
//     the experiment harness and the m4lsm/m4udf execution paths call it,
//     so there is exactly one definition to keep correct.
//   - LTTB is the canonical count-based Largest-Triangle-Three-Buckets
//     (Steinarsson 2013; cf. arXiv:2305.00332): the global first point,
//     w−2 equal-count interior buckets each contributing the point that
//     maximizes the triangle area with the previously selected point and
//     the next bucket's average, and the global last point — exactly
//     min(w, n) points. Bucket boundaries use integer arithmetic, so the
//     selection is bit-for-bit deterministic across platforms.
//   - MinMaxLTTB (arXiv:2305.00332) preselects MinMax at Ratio·w time
//     spans and runs LTTB on the preselected subset: the preselection is
//     span-based, so the LSM path answers it from chunk metadata and
//     pyramid cells, while LTTB's sequential pass shrinks from n points
//     to at most 2·Ratio·w.
//
// Reduce applies any Spec to an in-memory merged series; it is the naive
// full-scan oracle every engine execution path is differentially tested
// against, bit for bit.
package reprops

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"m4lsm/internal/m4"
	"m4lsm/internal/series"
)

// Kind names a representation operator. The zero value is M4, so zero
// Specs mean "the paper's default representation".
type Kind uint8

// The available representation operators.
const (
	KindM4 Kind = iota
	KindMinMax
	KindLTTB
	KindMinMaxLTTB
)

// String returns the lower-case operator name used in m4ql, HTTP
// parameters and metric labels.
func (k Kind) String() string {
	switch k {
	case KindMinMax:
		return "minmax"
	case KindLTTB:
		return "lttb"
	case KindMinMaxLTTB:
		return "minmaxlttb"
	default:
		return "m4"
	}
}

// DefaultRatio is the MinMaxLTTB preselection ratio when none is given:
// the MinMaxLTTB paper finds ratios around 4 visually indistinguishable
// from plain LTTB at a fraction of its cost.
const DefaultRatio = 4

// Ratio bounds: a ratio of 1 degenerates to per-span MinMax and huge
// ratios defeat the preselection, so both are rejected at parse time.
const (
	MinRatio = 2
	MaxRatio = 64
)

// Spec is a fully specified representation choice: the operator plus the
// MinMaxLTTB preselection ratio (0 means DefaultRatio; ignored by the
// other kinds). The zero Spec is plain M4.
type Spec struct {
	Kind  Kind
	Ratio int
}

// EffectiveRatio resolves the preselection ratio, applying the default.
func (s Spec) EffectiveRatio() int {
	if s.Ratio <= 0 {
		return DefaultRatio
	}
	return s.Ratio
}

// String renders the spec the way ParseSpec reads it: the operator name,
// with ":ratio" appended for a MinMaxLTTB with an explicit ratio.
func (s Spec) String() string {
	if s.Kind == KindMinMaxLTTB && s.Ratio > 0 {
		return fmt.Sprintf("minmaxlttb:%d", s.Ratio)
	}
	return s.Kind.String()
}

// ParseKind parses an operator name (case-insensitive).
func ParseKind(name string) (Kind, error) {
	switch strings.ToLower(name) {
	case "m4":
		return KindM4, nil
	case "minmax":
		return KindMinMax, nil
	case "lttb":
		return KindLTTB, nil
	case "minmaxlttb":
		return KindMinMaxLTTB, nil
	}
	return KindM4, fmt.Errorf("reprops: unknown representation %q (want m4, minmax, lttb or minmaxlttb)", name)
}

// ParseSpec parses "name" or "minmaxlttb:ratio". Only MinMaxLTTB accepts
// a ratio, and it must lie in [MinRatio, MaxRatio].
func ParseSpec(s string) (Spec, error) {
	name, ratioText, hasRatio := strings.Cut(s, ":")
	kind, err := ParseKind(name)
	if err != nil {
		return Spec{}, err
	}
	if !hasRatio {
		return Spec{Kind: kind}, nil
	}
	if kind != KindMinMaxLTTB {
		return Spec{}, fmt.Errorf("reprops: %s does not take a ratio", kind)
	}
	ratio, err := strconv.Atoi(ratioText)
	if err != nil || ratio < MinRatio || ratio > MaxRatio {
		return Spec{}, fmt.Errorf("reprops: minmaxlttb ratio must be an integer in [%d, %d], got %q", MinRatio, MaxRatio, ratioText)
	}
	return Spec{Kind: kind, Ratio: ratio}, nil
}

// Specs returns one spec per operator (MinMaxLTTB at the default ratio),
// in presentation order — the sweep the benchmarks and harnesses iterate.
func Specs() []Spec {
	return []Spec{{Kind: KindM4}, {Kind: KindMinMax}, {Kind: KindLTTB}, {Kind: KindMinMaxLTTB}}
}

// PreQuery derives the MinMaxLTTB preselection query: the same time range
// split into ratio·w spans. Every execution path and the oracle build the
// preselection through this one helper, so they bucket identically.
func PreQuery(q m4.Query, ratio int) m4.Query {
	return m4.Query{Tqs: q.Tqs, Tqe: q.Tqe, W: q.W * ratio}
}

// MinMaxPoints flattens M4 aggregates into the MinMax reduction: per
// non-empty span the bottom and top points in time order, deduplicated
// when a single point is both extremes. Span outputs are disjoint and
// spans are in time order, so the result is sorted. The points are
// appended to dst, as m4.Points appends its own.
func MinMaxPoints(aggs []m4.Aggregate, dst ...series.Point) series.Series {
	out := slices.Grow(series.Series(dst), 2*len(aggs))
	for _, a := range aggs {
		if a.Empty {
			continue
		}
		lo, hi := a.Bottom, a.Top
		if lo.T > hi.T {
			lo, hi = hi, lo
		}
		out = append(out, lo)
		if hi.T != lo.T {
			out = append(out, hi)
		}
	}
	return out
}

// LTTB downsamples a time-sorted series to exactly min(w, n) points with
// Largest-Triangle-Three-Buckets. The first and last points are always
// kept; each of the w−2 interior buckets (equal point counts, integer
// boundaries) keeps the point maximizing the triangle area spanned with
// the previously selected point and the mean of the next bucket. Ties
// keep the earliest point, so the output is fully deterministic.
func LTTB(s series.Series, w int) series.Series {
	n := len(s)
	if w <= 0 || n == 0 {
		return nil
	}
	if n <= w {
		return append(series.Series(nil), s...)
	}
	switch w {
	case 1:
		return series.Series{s[0]}
	case 2:
		return series.Series{s[0], s[n-1]}
	}
	out := make(series.Series, 0, w)
	out = append(out, s[0])
	// Interior buckets partition s[1:n-1] into w-2 equal-count ranges:
	// bucket i is s[start(i):start(i+1)) with start(i) = 1 + i*(n-2)/(w-2).
	// n-2 >= w-2 here, so every bucket is non-empty.
	start := func(i int) int { return 1 + i*(n-2)/(w-2) }
	for i := 0; i < w-2; i++ {
		a := out[len(out)-1]
		// The third triangle vertex is the next bucket's mean; for the
		// last interior bucket that collapses to the global last point.
		nb0, nb1 := start(i+1), start(i+2)
		if nb1 > n-1 {
			nb1 = n - 1
		}
		var ct, cv float64
		if nb0 >= n-1 {
			ct, cv = float64(s[n-1].T), s[n-1].V
		} else {
			for _, p := range s[nb0:nb1] {
				ct += float64(p.T)
				cv += p.V
			}
			m := float64(nb1 - nb0)
			ct, cv = ct/m, cv/m
		}
		bestArea := -1.0
		var best series.Point
		for _, p := range s[start(i):start(i+1)] {
			// Twice the triangle area |a, p, c|; the factor cancels in
			// comparisons.
			area := abs((float64(a.T)-ct)*(p.V-a.V) - (float64(a.T)-float64(p.T))*(cv-a.V))
			if area > bestArea {
				bestArea = area
				best = p
			}
		}
		out = append(out, best)
	}
	return append(out, s[n-1])
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Clip returns the points of s inside the query's half-open time range.
// s must be sorted by time; the result aliases s.
func Clip(s series.Series, q m4.Query) series.Series {
	lo, hi := 0, len(s)
	for lo < hi && s[lo].T < q.Tqs {
		lo++
	}
	for hi > lo && s[hi-1].T >= q.Tqe {
		hi--
	}
	return s[lo:hi]
}

// Reduce applies the spec to an in-memory merged series: the naive
// full-scan oracle. Every engine execution path (m4lsm span machinery,
// m4udf merge-and-scan) must reproduce Reduce's output bit for bit on
// tie-free data; the differential harness enforces exactly that.
func Reduce(spec Spec, q m4.Query, s series.Series) (series.Series, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	switch spec.Kind {
	case KindMinMax:
		aggs, err := m4.ComputeSeries(q, s)
		if err != nil {
			return nil, err
		}
		return MinMaxPoints(aggs), nil
	case KindLTTB:
		return LTTB(Clip(s, q), q.W), nil
	case KindMinMaxLTTB:
		pre, err := Reduce(Spec{Kind: KindMinMax}, PreQuery(q, spec.EffectiveRatio()), s)
		if err != nil {
			return nil, err
		}
		return LTTB(pre, q.W), nil
	default:
		aggs, err := m4.ComputeSeries(q, s)
		if err != nil {
			return nil, err
		}
		return m4.Points(aggs), nil
	}
}
