// Package m4 defines the M4 representation of Definitions 2.1–2.3: the four
// representation functions FirstPoint, LastPoint, BottomPoint and TopPoint,
// the derivation of the w time spans of a query, and a streaming reference
// implementation that computes the representation of an already-merged
// series. The streaming implementation is both the M4-UDF building block
// and the ground truth the M4-LSM operator is tested against.
package m4

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"m4lsm/internal/series"
)

// Query is an M4 representation query (Definition 2.3): the half-open time
// range [Tqs, Tqe) divided into W equal time spans, one per pixel column.
type Query struct {
	Tqs int64 // query start, inclusive
	Tqe int64 // query end, exclusive
	W   int   // number of time spans (pixel columns)
}

// Validate checks the query parameters. The range's width must fit in an
// int64: every consumer of a query measures it with Tqe-Tqs.
func (q Query) Validate() error {
	if q.W <= 0 {
		return fmt.Errorf("m4: w must be positive, got %d", q.W)
	}
	if q.Tqe <= q.Tqs {
		return fmt.Errorf("m4: empty query range [%d, %d)", q.Tqs, q.Tqe)
	}
	if q.Tqe-q.Tqs < 0 {
		return fmt.Errorf("m4: query range [%d, %d) is wider than %d", q.Tqs, q.Tqe, int64(math.MaxInt64))
	}
	return nil
}

// Range returns the whole query range.
func (q Query) Range() series.TimeRange {
	return series.TimeRange{Start: q.Tqs, End: q.Tqe}
}

// Span returns the i-th time span I_{i+1} (0-based i in [0, W)). Boundaries
// use the integer form of the paper's SQL grouping (Appendix A.1): point t
// belongs to span floor(W*(t-Tqs)/(Tqe-Tqs)), so span i covers
// [Tqs+ceil(i*len/W), Tqs+ceil((i+1)*len/W)). With this formulation Span
// and SpanIndex agree exactly with no floating-point drift.
func (q Query) Span(i int) series.TimeRange {
	return series.TimeRange{Start: q.SpanStart(i), End: q.SpanStart(i + 1)}
}

// SpanStart returns where span i starts, and for i = W the range's end: span
// i is [SpanStart(i), SpanStart(i+1)), one division per boundary for a
// caller that walks the spans in order. i must lie in [0, W].
//
// The product i·(Tqe−Tqs) is taken in 128 bits, so a wide window (a
// nanosecond series zoomed out over years) cannot overflow; a product that
// fits in 64 bits takes the plain division.
func (q Query) SpanStart(i int) int64 {
	hi, lo := bits.Mul64(uint64(i), q.width())
	quo, rem := div128(hi, lo, uint64(q.W))
	if rem != 0 {
		quo++
	}
	// quo ≤ Tqe−Tqs, so the sum lands in [Tqs, Tqe] and the unsigned
	// addition wraps back into range exactly.
	return int64(uint64(q.Tqs) + quo)
}

// SpanIndex returns the 0-based span containing t, or -1 if t lies outside
// the query range. W·(t−Tqs) is taken in 128 bits, as in SpanStart.
func (q Query) SpanIndex(t int64) int {
	if t < q.Tqs || t >= q.Tqe {
		return -1
	}
	hi, lo := bits.Mul64(uint64(q.W), uint64(t)-uint64(q.Tqs))
	quo, _ := div128(hi, lo, q.width())
	return int(quo)
}

// width is Tqe−Tqs as an unsigned number, exact for any Tqe > Tqs.
func (q Query) width() uint64 { return uint64(q.Tqe) - uint64(q.Tqs) }

// div128 divides the 128-bit hi:lo by d, whose quotient must fit in 64
// bits (hi < d), taking the 64-bit division when hi is zero.
func div128(hi, lo, d uint64) (quo, rem uint64) {
	if hi == 0 {
		return lo / d, lo % d
	}
	return bits.Div64(hi, lo, d)
}

// Aggregate is the result of the four representation functions on one time
// span. When Empty is true the span contains no (latest) points and the
// four points are meaningless.
type Aggregate struct {
	First  series.Point // FP(T_i)
	Last   series.Point // LP(T_i)
	Bottom series.Point // BP(T_i): any point with the minimal value
	Top    series.Point // TP(T_i): any point with the maximal value
	Empty  bool
}

// Observe folds one point into the aggregate. Points must arrive in
// increasing time order; an Empty aggregate is initialized by its first
// point.
func (a *Aggregate) Observe(p series.Point) {
	if a.Empty {
		*a = Aggregate{First: p, Last: p, Bottom: p, Top: p}
		return
	}
	a.Last = p
	if p.V < a.Bottom.V {
		a.Bottom = p
	}
	if p.V > a.Top.V {
		a.Top = p
	}
}

func (a Aggregate) String() string {
	if a.Empty {
		return "{empty}"
	}
	return fmt.Sprintf("{first=%v last=%v bottom=%v top=%v}", a.First, a.Last, a.Bottom, a.Top)
}

// Equivalent reports whether two aggregates are interchangeable for
// visualization: FP and LP must match exactly (inter-column pixels depend
// on their times and values), while BP and TP need only agree on value
// (inner-column pixels depend on values alone; Definition 2.1 allows any
// extremal point).
func Equivalent(a, b Aggregate) bool {
	if a.Empty != b.Empty {
		return false
	}
	if a.Empty {
		return true
	}
	return a.First == b.First && a.Last == b.Last &&
		a.Bottom.V == b.Bottom.V && a.Top.V == b.Top.V
}

// Merge folds b, the aggregate of the sub-interval right after a's, into a:
// First stays a's (b's when a is empty), Last becomes b's, and Bottom/Top
// take b's extremes only when strictly more extreme, so value ties keep the
// earlier point — exactly what Observe computes over the concatenated
// points. Merge is associative, so folded runs of parts merge alike.
func (a *Aggregate) Merge(b Aggregate) {
	switch {
	case b.Empty:
	case a.Empty:
		*a = b
	default:
		a.Last = b.Last
		if b.Bottom.V < a.Bottom.V {
			a.Bottom = b.Bottom
		}
		if b.Top.V > a.Top.V {
			a.Top = b.Top
		}
	}
}

// ErrUnsorted reports out-of-order input to the streaming computation.
var ErrUnsorted = errors.New("m4: input points not in increasing time order")

// ComputeStream runs the M4 representation query over a stream of latest
// points in strictly increasing time order (e.g. a mergeread.Iterator),
// returning one aggregate per span. Spans without points are marked Empty.
func ComputeStream(q Query, next func() (series.Point, bool)) ([]Aggregate, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	out := make([]Aggregate, q.W)
	for i := range out {
		out[i].Empty = true
	}
	if err := Fold(q, out, next); err != nil {
		return nil, err
	}
	return out, nil
}

// Fold observes a stream of latest points in strictly increasing time
// order into out, the query's q.W span slots, already initialized: points
// outside the query's range are skipped, and the first out-of-order point
// is ErrUnsorted.
func Fold(q Query, out []Aggregate, next func() (series.Point, bool)) error {
	prevT := int64(0)
	first := true
	for {
		p, ok := next()
		if !ok {
			return nil
		}
		if !first && p.T <= prevT {
			return fmt.Errorf("%w: t=%d after t=%d", ErrUnsorted, p.T, prevT)
		}
		first = false
		prevT = p.T
		if i := q.SpanIndex(p.T); i >= 0 {
			out[i].Observe(p)
		}
	}
}

// ComputeSeries runs the M4 representation query over an in-memory merged
// series (the reference used by tests and by the pixel-error validation).
func ComputeSeries(q Query, s series.Series) ([]Aggregate, error) {
	i := 0
	return ComputeStream(q, func() (series.Point, bool) {
		if i >= len(s) {
			return series.Point{}, false
		}
		p := s[i]
		i++
		return p, true
	})
}

// Points flattens aggregates into the reduced series M4 renders: for every
// non-empty span the first, bottom/top (in time order) and last points,
// deduplicated and sorted by time. This is the series a client draws. The
// aggregates are a query's, in span order: spans are disjoint and ordered,
// and within one First is the earliest point and Last the latest, so the
// output is built in order with no sort. A point at the time of the last
// one kept is the same point of the merged series, and is dropped.
//
// The points are appended to dst, which a caller that recycles its
// buffers passes with its elements spread (m4lsm.ReduceMultiContext
// passes a pooled slice); without it Points allocates the result.
func Points(aggs []Aggregate, dst ...series.Point) series.Series {
	out := slices.Grow(series.Series(dst), 4*len(aggs))
	for _, a := range aggs {
		if a.Empty {
			continue
		}
		lo, hi := a.Bottom, a.Top
		if hi.T < lo.T {
			lo, hi = hi, lo
		}
		for _, p := range [...]series.Point{a.First, lo, hi, a.Last} {
			if len(out) == 0 || p.T > out[len(out)-1].T {
				out = append(out, p)
			}
		}
	}
	return out
}
