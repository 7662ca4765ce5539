package m4lsm

import (
	"context"

	"m4lsm/internal/m4"
	"m4lsm/internal/mergeread"
	"m4lsm/internal/reprops"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
)

// ReduceMultiContext evaluates one representation query over several series,
// choosing the cheapest execution the operator admits:
//
//   - M4 runs the classic two-wave span×G machinery and flattens the
//     aggregates to points (identical to ComputeMultiContext + m4.Points).
//   - MinMax runs the same machinery with the LP wave dropped — chunk
//     metadata pruning, lazy verification, and pyramid cells (which roll up
//     BP/TP) all apply, so fully covered spans load zero chunks.
//   - MinMaxLTTB runs MinMax at ratio·w spans (metadata and pyramid apply
//     to the preselection) and LTTB-selects the final w on the tiny subset.
//   - LTTB cannot use metadata at all — every point's triangle area depends
//     on its neighbours — so it is a fold over the merge-all read
//     (mergeread.Read, shared with the UDF baseline) and selects
//     sequentially per series.
//
// Results are positional (out[i] belongs to snaps[i]) and bit-identical to
// reprops.Reduce over each snapshot's merged series, which the differential
// harness enforces per operator.
func ReduceMultiContext(ctx context.Context, snaps []*storage.Snapshot, q m4.Query, spec reprops.Spec, opts Options) ([]series.Series, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	// The span-based operators differ only in the spans they plan, the
	// rest wave they run, their label and how a series' aggregates become
	// points.
	spans, rest, label, points, perSpan := q, restM4, "lsm", m4.Points, 4
	switch spec.Kind {
	case reprops.KindLTTB:
		return reduceLTTB(ctx, snaps, q, opts)
	case reprops.KindMinMax:
		rest, label, points, perSpan = restMinMax, "minmax", reprops.MinMaxPoints, 2
	case reprops.KindMinMaxLTTB:
		spans, rest, label, points, perSpan = reprops.PreQuery(q, spec.EffectiveRatio()), restMinMax, "minmaxlttb", reprops.MinMaxPoints, 2
	}
	aggs, err := computeMultiKinds(ctx, snaps, spans, opts, rest, label)
	if err != nil {
		return nil, err
	}
	// The aggregates never leave the package: each series' are flattened
	// into points from PointPool and handed straight back. The points are
	// the answer; MinMaxLTTB's preselection goes back once LTTB has copied
	// what it keeps.
	out := make([]series.Series, len(aggs))
	for i, a := range aggs {
		pts := points(a, PointPool.Get(perSpan * len(a))[:0]...)
		AggregatePool.Put(a)
		if spec.Kind == reprops.KindMinMaxLTTB {
			out[i] = reprops.LTTB(pts, q.W)
			PointPool.Put(pts)
			continue
		}
		out[i] = pts
	}
	return out, nil
}

// reduceLTTB is a fold over the merge-all read (strictness, degradation
// and budget charging exactly as in the UDF baseline): each series' merged
// range goes through the sequential triangle selection.
func reduceLTTB(ctx context.Context, snaps []*storage.Snapshot, q m4.Query, opts Options) ([]series.Series, error) {
	out := make([]series.Series, len(snaps))
	mopts := mergeread.Options{Strict: opts.Strict, Metrics: opts.Metrics, Budget: opts.Budget}
	err := mergeread.Read(ctx, snaps, "lttb", mopts, func(i int, l *mergeread.Loaded, c *mergeread.Clock) error {
		t0 := c.Now()
		out[i] = reprops.LTTB(l.Series(q.Range()), q.W)
		c.Phase("select", t0)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
