// Package m4udf is the baseline operator of Fig. 2(b): the original M4
// algorithm implemented the way a user-defined function runs inside the
// database. It reads the fully assembled time series from the merge reader
// — loading every chunk, ordering points by time and applying deletes —
// and streams the M4 representation over it. Chunk metadata is never
// consulted (§A.5.2).
//
// Both forms are folds over mergeread.Read, the one merge-all read: the M4
// scan is one k-way merge over the query's range, each point observed
// into its span's slot.
package m4udf

import (
	"context"

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
// observed between chunk loads and after the scan and returns ctx.Err(); the
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
	err := mergeread.Read(ctx, snaps, "udf", opts, func(i int, l *mergeread.Loaded, c *mergeread.Clock) error {
		t0 := c.Now()
		out := make([]m4.Aggregate, q.W)
		for k := range out {
			out[k].Empty = true
		}
		err := m4.Fold(q, out, l.Iterator(q.Range()).Next)
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
	err := mergeread.Read(ctx, snaps, "udf", opts, func(i int, l *mergeread.Loaded, c *mergeread.Clock) error {
		t0 := c.Now()
		var err error
		outs[i], err = reprops.Reduce(spec, q, l.Series(q.Range()))
		c.Phase("reduce", t0)
		return err
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
}
