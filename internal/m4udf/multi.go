package m4udf

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"m4lsm/internal/m4"
	"m4lsm/internal/storage"
)

// ComputeMulti runs one M4 query over several series with default options.
func ComputeMulti(snaps []*storage.Snapshot, q m4.Query) ([][]m4.Aggregate, error) {
	return ComputeMultiContext(context.Background(), snaps, q, Options{})
}

// ComputeMultiContext is the baseline's batched form, the UDF counterpart
// of m4lsm.ComputeMultiContext: each series is merged and scanned exactly as
// ComputeContext would, with the batch fanned across Options.Parallelism
// workers at series granularity; each series gets the workers' share of
// the parallelism inside, so the batch never oversubscribes it and a batch
// of one is exactly ComputeContext. Results are positional —
// out[i] belongs to snaps[i] — and identical to per-series ComputeContext
// calls; per-series cost counters stay on each snapshot's own Stats.
func ComputeMultiContext(ctx context.Context, snaps []*storage.Snapshot, q m4.Query, opts Options) ([][]m4.Aggregate, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if len(snaps) == 0 {
		return nil, nil
	}
	par := opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	inner := opts
	inner.Parallelism = 1
	if par > len(snaps) {
		inner.Parallelism = par / len(snaps)
		par = len(snaps)
	}
	outs := make([][]m4.Aggregate, len(snaps))
	errs := make([]error, len(snaps))
	run := func(i int) {
		outs[i], errs[i] = ComputeContext(ctx, snaps[i], q, inner)
	}
	if par <= 1 {
		for i := range snaps {
			run(i)
			if errs[i] != nil {
				break
			}
		}
	} else {
		var next atomic.Int64
		var failed atomic.Bool
		var wg sync.WaitGroup
		wg.Add(par)
		for w := 0; w < par; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(snaps) || failed.Load() {
						return
					}
					run(i)
					if errs[i] != nil {
						failed.Store(true)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	for i, err := range errs {
		if err != nil {
			if len(snaps) == 1 {
				return nil, err
			}
			return nil, fmt.Errorf("m4udf: series %q: %w", snaps[i].SeriesID, err)
		}
	}
	return outs, nil
}
