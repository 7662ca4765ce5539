// Package groupby implements per-span aggregation over LSM storage — the
// GroupBy companion of the M4 operator that dashboards combine with line
// charts (counts, averages and envelopes per pixel column).
//
// Two execution paths:
//
//   - When every requested function is representation-based
//     (First/Last/Min/Max), the query runs on the merge-free M4-LSM
//     operator: Min/Max are exactly BP/TP values and First/Last are FP/LP
//     values, so chunk metadata answers them without merging.
//   - Otherwise (Count/Sum/Avg need every surviving point) the query is a
//     fold over the merge-all read (mergeread.Read), like the UDF baseline.
package groupby

import (
	"context"
	"fmt"
	"time"

	"m4lsm/internal/m4"
	"m4lsm/internal/m4lsm"
	"m4lsm/internal/mergeread"
	"m4lsm/internal/obs"
	"m4lsm/internal/storage"
)

// Func is one aggregate function.
type Func uint8

// Supported aggregate functions.
const (
	Count Func = iota
	Sum
	Avg
	Min
	Max
	First
	Last
	numFuncs
)

var funcNames = [numFuncs]string{"count", "sum", "avg", "min", "max", "first", "last"}

// String returns the lower-case function name.
func (f Func) String() string {
	if int(f) < len(funcNames) {
		return funcNames[f]
	}
	return fmt.Sprintf("func(%d)", int(f))
}

// ByName resolves a case-insensitive function name.
func ByName(name string) (Func, bool) {
	for i, n := range funcNames {
		if equalFold(n, name) {
			return Func(i), true
		}
	}
	return 0, false
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// Row is the aggregate vector of one non-empty span.
type Row struct {
	Span   int
	Values []float64 // parallel to the requested functions
}

// representable reports whether fns can be answered by the four M4
// representation points alone.
func representable(fns []Func) bool {
	for _, f := range fns {
		switch f {
		case Min, Max, First, Last:
		default:
			return false
		}
	}
	return true
}

// Compute evaluates the aggregate functions per time span for every
// snapshot, positionally (out[i] belongs to snaps[i]); spans without
// surviving points are omitted. It runs under the same contract as the M4
// and REPRESENT forms: ctx cancels, opts.Strict fails on an unreadable
// chunk where the default drops it with a snapshot warning, opts.Budget
// caps loads, opts.Parallelism bounds the workers and opts.Metrics
// receives the operator counters (op="lsm" for the envelope path,
// op="groupby" for the merge scan).
func Compute(ctx context.Context, snaps []*storage.Snapshot, q m4.Query, fns []Func, opts m4lsm.Options) ([][]Row, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if len(fns) == 0 {
		return nil, fmt.Errorf("groupby: no aggregate functions")
	}
	for _, f := range fns {
		if f >= numFuncs {
			return nil, fmt.Errorf("groupby: unknown function %d", f)
		}
	}
	start := time.Now()
	compute := computeFromMerge
	if representable(fns) {
		compute = computeFromM4
	}
	outs, err := compute(ctx, snaps, q, fns, opts)
	obs.TraceOf(ctx).Phase("groupby", time.Since(start))
	return outs, err
}

// computeFromM4 answers envelope functions from the merge-free operator,
// all series in one batch. Each series' aggregates go back to the
// operator's pool once folded: the rows are the answer.
func computeFromM4(ctx context.Context, snaps []*storage.Snapshot, q m4.Query, fns []Func, opts m4lsm.Options) ([][]Row, error) {
	aggs, err := m4lsm.ComputeMultiContext(ctx, snaps, q, opts)
	if err != nil {
		return nil, err
	}
	outs := make([][]Row, len(aggs))
	for si := range aggs {
		accums := make([]spanAccum, q.W)
		for i, a := range aggs[si] {
			if !a.Empty {
				// count only marks the span non-empty: envelope function
				// sets never project it.
				accums[i] = spanAccum{count: 1, min: a.Bottom.V, max: a.Top.V, first: a.First.V, last: a.Last.V}
			}
		}
		m4lsm.AggregatePool.Put(aggs[si])
		outs[si] = rows(accums, fns)
	}
	return outs, nil
}

// spanAccum accumulates one span's running aggregates.
type spanAccum struct {
	count       int64
	sum         float64
	min, max    float64
	first, last float64
}

// computeFromMerge is a fold over the merge-all read, so strictness,
// degradation and budget charging are exactly the UDF baseline's: each
// series' merged stream is scanned once into per-span accumulators.
func computeFromMerge(ctx context.Context, snaps []*storage.Snapshot, q m4.Query, fns []Func, opts m4lsm.Options) ([][]Row, error) {
	outs := make([][]Row, len(snaps))
	mopts := mergeread.Options{Parallelism: opts.Parallelism, Strict: opts.Strict, Metrics: opts.Metrics, Budget: opts.Budget}
	err := mergeread.Read(ctx, snaps, "groupby", mopts, func(i int, l *mergeread.Loaded, _ int, _ *mergeread.Clock) error {
		accums := make([]spanAccum, q.W)
		it := l.Iterator(q.Range())
		for p, ok := it.Next(); ok; p, ok = it.Next() {
			k := q.SpanIndex(p.T)
			if k < 0 {
				continue
			}
			acc := &accums[k]
			if acc.count == 0 {
				*acc = spanAccum{min: p.V, max: p.V, first: p.V}
			}
			if p.V < acc.min {
				acc.min = p.V
			}
			if p.V > acc.max {
				acc.max = p.V
			}
			acc.last = p.V
			acc.sum += p.V
			acc.count++
		}
		outs[i] = rows(accums, fns)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// rows projects the requested functions out of the non-empty spans. Every
// row's Values is carved out of one backing slice.
func rows(accums []spanAccum, fns []Func) []Row {
	n := 0
	for i := range accums {
		if accums[i].count != 0 {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Row, 0, n)
	vals := make([]float64, n*len(fns))
	for i := range accums {
		acc := &accums[i]
		if acc.count == 0 {
			continue
		}
		row := Row{Span: i, Values: vals[:len(fns):len(fns)]}
		vals = vals[len(fns):]
		for j, f := range fns {
			switch f {
			case Count:
				row.Values[j] = float64(acc.count)
			case Sum:
				row.Values[j] = acc.sum
			case Avg:
				row.Values[j] = acc.sum / float64(acc.count)
			case Min:
				row.Values[j] = acc.min
			case Max:
				row.Values[j] = acc.max
			case First:
				row.Values[j] = acc.first
			case Last:
				row.Values[j] = acc.last
			}
		}
		out = append(out, row)
	}
	return out
}
