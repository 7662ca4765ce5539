// Package m4udf is the baseline operator of Fig. 2(b): the original M4
// algorithm implemented the way a user-defined function runs inside the
// database. It reads the fully assembled time series from the merge reader
// — loading every chunk, ordering points by time and applying deletes —
// and streams the M4 representation over it. Chunk metadata is never
// consulted (§A.5.2).
//
// Both forms are folds over mergeread.Read, the one merge-all read. The M4
// scan parallelizes per span block: the w spans are partitioned into
// contiguous blocks and each worker runs its own k-way merge restricted to
// its block's time range. Every point belongs to exactly one span, so the
// blocks write disjoint output slots and the result is byte-identical to
// the sequential scan.
package m4udf

import (
	"context"

	"m4lsm/internal/govern"
	"m4lsm/internal/m4"
	"m4lsm/internal/mergeread"
	"m4lsm/internal/reprops"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
)

// Options tune the baseline's execution, the merge-all read's options (its
// metrics carry op="udf"); the algorithm is unchanged.
type Options = mergeread.Options

// Compute runs the M4 representation query against a snapshot by merging
// all chunks online and scanning the merged series.
func Compute(snap *storage.Snapshot, q m4.Query) ([]m4.Aggregate, error) {
	return ComputeContext(context.Background(), snap, q, Options{})
}

// ComputeContext is Compute under a context and options: cancellation is
// observed between chunk loads and span blocks and returns ctx.Err(); the
// snapshot's cost counters are final once ComputeContext returns.
func ComputeContext(ctx context.Context, snap *storage.Snapshot, q m4.Query, opts Options) ([]m4.Aggregate, error) {
	outs, err := ComputeMultiContext(ctx, []*storage.Snapshot{snap}, q, opts)
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// ComputeMultiContext is the baseline's batched form, the UDF counterpart
// of m4lsm.ComputeMultiContext. Results are positional — out[i] belongs to
// snaps[i] — and per-series cost counters stay on each snapshot's own
// Stats.
func ComputeMultiContext(ctx context.Context, snaps []*storage.Snapshot, q m4.Query, opts Options) ([][]m4.Aggregate, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	outs := make([][]m4.Aggregate, len(snaps))
	err := mergeread.Read(ctx, snaps, "udf", opts, func(i int, l *mergeread.Loaded, par int, c *mergeread.Clock) error {
		t0 := c.Now()
		out := make([]m4.Aggregate, q.W)
		for k := range out {
			out[k].Empty = true
		}
		blocks := min(par, q.W)
		err := govern.RunPool(blocks, blocks, func(_, b int) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			// Block b covers spans [b*W/blocks, (b+1)*W/blocks): contiguous,
			// and span boundaries are exact (m4.Span and m4.SpanIndex agree),
			// so an iterator over the block's time range yields exactly the
			// points of those spans. Its first span is the task coordinate.
			lo, hi := b*q.W/blocks, (b+1)*q.W/blocks
			t := c.Now()
			err := m4.Fold(q, out, l.Iterator(series.TimeRange{Start: q.Span(lo).Start, End: q.Span(hi - 1).End}).Next)
			c.Task(lo, "scan", t)
			return err
		})
		c.Phase("scan", t0)
		outs[i] = out
		return err
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// ReduceMultiContext answers a representation query the way a UDF would:
// merge each series' chunks into the full series and run the reference
// reduction from reprops over it. Chunk metadata is never consulted, for
// any operator — this is the baseline the LSM-native
// m4lsm.ReduceMultiContext is differentially tested against. Results are
// positional, as in ComputeMultiContext.
func ReduceMultiContext(ctx context.Context, snaps []*storage.Snapshot, q m4.Query, spec reprops.Spec, opts Options) ([]series.Series, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	outs := make([]series.Series, len(snaps))
	err := mergeread.Read(ctx, snaps, "udf", opts, func(i int, l *mergeread.Loaded, _ int, c *mergeread.Clock) error {
		t0 := c.Now()
		var err error
		outs[i], err = reprops.Reduce(spec, q, l.Series(q.Range()))
		c.Task(i, "reduce", t0)
		return err
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
}
