// Package series defines the basic time-series data model shared by every
// layer of the system: a point is a (timestamp, value) pair and a series is a
// slice of points in strictly increasing time order.
//
// Timestamps are int64 milliseconds (the paper's datasets use epoch-millis);
// values are float64. Within a single chunk timestamps are unique; across
// chunks the same timestamp may occur, in which case the chunk with the
// larger version number holds the latest value (see Definition 2.7 of the
// paper and package mergeread).
package series

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Point is a single time-value observation.
type Point struct {
	T int64   // timestamp, epoch milliseconds
	V float64 // observed value
}

// String renders the point as "(t, v)".
func (p Point) String() string { return fmt.Sprintf("(%d, %g)", p.T, p.V) }

// Series is a sequence of points. Most code requires the strictly-increasing
// time order Columns.Validate enforces; construction helpers preserve it.
type Series []Point

// ErrUnsorted is returned by Columns.Validate for out-of-order or
// duplicate timestamps.
var ErrUnsorted = errors.New("series: timestamps not strictly increasing")

// SortDedup sorts the series by time and keeps, for duplicate timestamps,
// the point that appears last in the input (mirroring overwrite semantics
// when a batch carries several values for one timestamp). It returns the
// possibly shortened slice.
func SortDedup(s Series) Series {
	if len(s) < 2 {
		return s
	}
	sort.SliceStable(s, func(i, j int) bool { return s[i].T < s[j].T })
	out := s[:1]
	for _, p := range s[1:] {
		if p.T == out[len(out)-1].T {
			out[len(out)-1] = p // later write wins
			continue
		}
		out = append(out, p)
	}
	return out
}

// Times returns the timestamps of the series as a fresh slice.
func (s Series) Times() []int64 {
	ts := make([]int64, len(s))
	for i, p := range s {
		ts[i] = p.T
	}
	return ts
}

// Values returns the values of the series as a fresh slice.
func (s Series) Values() []float64 {
	vs := make([]float64, len(s))
	for i, p := range s {
		vs[i] = p.V
	}
	return vs
}

// FromColumns zips parallel timestamp and value slices into a Series.
// It panics if the lengths differ, as that is always a programming error.
func FromColumns(ts []int64, vs []float64) Series {
	if len(ts) != len(vs) {
		panic(fmt.Sprintf("series: column length mismatch %d != %d", len(ts), len(vs)))
	}
	s := make(Series, len(ts))
	for i := range ts {
		s[i] = Point{T: ts[i], V: vs[i]}
	}
	return s
}

// Columns is the columnar form of a sorted series: parallel timestamp and
// value slices, which is how a chunk is stored, decoded and scanned. Rows
// (a Series) are built from it only for a caller that asked for points.
// A Columns value is a small header over the two slices; copying it, Slice
// and the accessors share the underlying arrays.
//
// The type is a one-element array of the header, not the header struct
// itself, for one reason: the benchmark module (bench/, frozen by
// BENCHMARK.json) takes len() of a ReadChunk result, and len must keep
// compiling. len(c) is therefore always 1 and means nothing — the number of
// points is c.Len().
type Columns [1]struct {
	t []int64
	v []float64
}

// NewColumns pairs two parallel slices without copying them. It panics if
// the lengths differ, as that is always a programming error.
func NewColumns(ts []int64, vs []float64) Columns {
	if len(ts) != len(vs) {
		panic(fmt.Sprintf("series: column length mismatch %d != %d", len(ts), len(vs)))
	}
	var c Columns
	c[0].t, c[0].v = ts, vs
	return c
}

// Validate checks that timestamps strictly increase and values are not
// NaN: what a chunk must hold.
func (c Columns) Validate() error {
	ts, vs := c[0].t, c[0].v
	for i := range ts {
		if i > 0 && ts[i] <= ts[i-1] {
			return fmt.Errorf("%w: index %d (t=%d after t=%d)", ErrUnsorted, i, ts[i], ts[i-1])
		}
		if math.IsNaN(vs[i]) {
			return fmt.Errorf("series: NaN value at index %d (t=%d)", i, ts[i])
		}
	}
	return nil
}

// Columns splits the series into freshly allocated columns.
func (s Series) Columns() Columns { return NewColumns(s.Times(), s.Values()) }

// Times returns the timestamp column itself, not a copy.
func (c Columns) Times() []int64 { return c[0].t }

// Values returns the value column itself, not a copy.
func (c Columns) Values() []float64 { return c[0].v }

// Len returns the number of points.
func (c Columns) Len() int { return len(c[0].t) }

// Points materializes the rows.
func (c Columns) Points() Series { return FromColumns(c[0].t, c[0].v) }

// Slice returns the points inside the half-open range as a view of the same
// arrays (no copy), found by binary search on the timestamps.
func (c Columns) Slice(r TimeRange) Columns {
	ts := c[0].t
	lo := sort.Search(len(ts), func(i int) bool { return ts[i] >= r.Start })
	hi := lo + sort.Search(len(ts)-lo, func(i int) bool { return ts[lo+i] >= r.End })
	return NewColumns(ts[lo:hi], c[0].v[lo:hi])
}

// TimeRange is a half-open interval [Start, End) over timestamps, the shape
// used by M4 spans and query ranges (Definition 2.3).
type TimeRange struct {
	Start int64 // inclusive
	End   int64 // exclusive
}

// Contains reports whether t falls inside the half-open range.
func (r TimeRange) Contains(t int64) bool { return t >= r.Start && t < r.End }

// Empty reports whether the range contains no timestamps.
func (r TimeRange) Empty() bool { return r.End <= r.Start }

func (r TimeRange) String() string { return fmt.Sprintf("[%d, %d)", r.Start, r.End) }

// Slice returns the subsequence of s inside the half-open range, as a view
// of the original backing array (no copy).
func (s Series) Slice(r TimeRange) Series {
	if r.Empty() || len(s) == 0 {
		return nil
	}
	lo := sort.Search(len(s), func(i int) bool { return s[i].T >= r.Start })
	hi := sort.Search(len(s), func(i int) bool { return s[i].T >= r.End })
	if lo >= hi {
		return nil
	}
	return s[lo:hi]
}
