// Package m4lsm implements the paper's contribution: the chunk-merge-free
// M4 operator of §3 (Fig. 2(c), Algorithm 1). For every time span and every
// representation function G ∈ {FP, LP, BP, TP} it iterates candidate
// generation from chunk metadata (§3.2) and candidate verification
// (§3.3/§3.4), loading chunk data only lazily:
//
//   - The span boundaries act as virtual deletes with infinite version
//     (§3.1): a chunk fully inside the span keeps its metadata; a chunk
//     split by the span keeps only bounds (its restricted FP/LP time is
//     bounded by the span edge, its restricted BP/TP value is bounded by
//     the chunk-wide extremum).
//   - FP/LP candidates are verified against later deletes only
//     (Proposition 3.1). A refuted candidate updates the chunk's time
//     bound by the delete boundary without loading the chunk; if the
//     bound stays competitive the chunk's timestamps are fetched (a
//     partial load) and the chunk index finds the closest surviving
//     timestamp (Table 1 case b), and the chunk data is loaded only if
//     that timestamp actually wins the span.
//   - BP/TP candidates are additionally verified against later chunks
//     containing a point at the candidate's timestamp (Proposition 3.3),
//     an existence probe on the later chunk's timestamps via the step-
//     regression index (Table 1 case a) — again a partial load.
//   - Only when a chunk's metadata can no longer answer (its extremum was
//     deleted or overwritten, or the span splits it) is the chunk loaded
//     and its metadata recalculated under deletes and known overwrites
//     (Table 1 case c).
//
// The operator never merges chunks; its output is equivalent (in the sense
// of m4.Equivalent) to running the original M4 over the merged series.
package m4lsm

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"m4lsm/internal/govern"
	"m4lsm/internal/m4"
	"m4lsm/internal/mergeread"
	"m4lsm/internal/obs"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
)

// Options tune the operator; the zero value is the paper's configuration
// (run on every available core). The non-default settings exist for the
// ablation studies in DESIGN.md §6.
type Options struct {
	// Parallelism bounds the worker goroutines that evaluate the
	// (chunk list, G) tasks: 0 uses GOMAXPROCS, 1 runs single-threaded on the
	// calling goroutine. The result is byte-identical at every setting —
	// tasks are independent and write disjoint output slots — and full
	// chunk loads are deduplicated by a per-chunk singleflight gate, so
	// Stats.ChunksLoaded does not depend on the worker count either.
	Parallelism int
	// DisableStepIndex replaces step-regression probes with plain binary
	// search.
	DisableStepIndex bool
	// EagerLoad materializes every overlapping chunk up front instead of
	// loading lazily.
	EagerLoad bool
	// DisablePartialLoad makes timestamp probes load full chunks instead
	// of the timestamp block only.
	DisablePartialLoad bool
	// Strict makes any chunk read failure fail the whole query. The
	// default degrades gracefully: an unreadable chunk is dropped from
	// the query, reported through the snapshot's Warnings/OnQuarantine,
	// and the result is computed from the remaining chunks.
	Strict bool
	// Metrics, when non-nil, receives the operator's query counters and
	// latency histograms (labelled op="lsm"). Nil — the default — skips
	// all instrumentation on the hot path.
	Metrics *obs.Registry
	// Budget, when non-nil, caps the resources this query may spend: every
	// physical load (timestamps or full data) charges one chunk, a full
	// load additionally charges the chunk's point count, and the budget's
	// deadline is checked at task boundaries. An exhausted budget behaves
	// like an unreadable chunk: under Strict the query fails with an error
	// wrapping govern.ErrBudgetExceeded; otherwise the affected chunks are
	// dropped with a warning and the result degrades exactly like the
	// fault-tolerance path (FP substitution and all). The same *Budget may
	// be shared by the batched multi-series path and the UDF baseline.
	Budget *govern.Budget
}

// Compute runs the M4 representation query over the snapshot's chunks and
// deletes, without merging chunks, with default options.
func Compute(snap *storage.Snapshot, q m4.Query) ([]m4.Aggregate, error) {
	return ComputeContext(context.Background(), snap, q, Options{})
}

// ComputeContext is Compute under a context and options: cancellation stops
// the worker pool at the next task or chunk-load boundary and returns
// ctx.Err(). The snapshot's cost counters are final once ComputeContext
// returns — every worker has joined, cancelled or not.
//
// The implementation is a one-series batch: see ComputeMultiContext, which
// plans the (chunk list, G) task decomposition (plan.go), runs the two
// waves (FP first, then LP/BP/TP for the surviving lists) over the shared
// worker pool, and assembles the aggregates. The decomposition is identical
// at every parallelism level and batch size, so the output is byte-identical
// whatever the worker count.
func ComputeContext(ctx context.Context, snap *storage.Snapshot, q m4.Query, opts Options) ([]m4.Aggregate, error) {
	outs, err := ComputeMultiContext(ctx, []*storage.Snapshot{snap}, q, opts)
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// Rest-wave kind lists: which representation functions run in wave 2 after
// FP proves a list live. M4 needs all three; MinMax needs only the value
// extremes (FP still runs in wave 1 — it is the metadata-cheap emptiness
// prover and the substitution source for degraded reads — but its point is
// not part of the MinMax output).
var (
	restM4     = []gKind{gLP, gBP, gTP}
	restMinMax = []gKind{gBP, gTP}
)

// ComputeMultiContext evaluates one M4 query over several series' snapshots
// as a single batch: the tasks of every series feed one shared worker pool,
// so a fleet-style dashboard query (one chart per sensor) costs two pool
// waves total instead of two per series. Results are positional — out[i]
// belongs to snaps[i] — and byte-identical to running ComputeContext on
// each snapshot alone: the decomposition into tasks is the same, only the
// scheduling is batched. Per-series cost counters, warnings and degradation
// stay attributed to each snapshot's own Stats and Warnings.
//
// The single-series ComputeContext is this batch with one plan, so there is
// exactly one candidate-loop implementation to keep correct.
func ComputeMultiContext(ctx context.Context, snaps []*storage.Snapshot, q m4.Query, opts Options) ([][]m4.Aggregate, error) {
	return computeMultiKinds(ctx, snaps, q, opts, restM4, "lsm")
}

// computeMultiKinds is the task machinery shared by every span-based
// representation operator: the rest list selects which functions wave 2
// computes per live chunk list (M4 passes restM4, MinMax passes
// restMinMax), and label names the operator in metrics and traces.
// Aggregate fields whose kind is not in rest are filled with the list's FP,
// so downstream reducers read only the fields their representation defines.
//
// A task is one representation function over one chunk list (see
// seriesPlan): a plain span's, or a pyramid span's boundary fragment.
// Wave 1 runs FP on every list with chunks. FP proves a list empty by
// chaining delete bounds without loading chunk data, so wave 2 runs the
// rest kinds only on the lists whose FP found a point.
func computeMultiKinds(ctx context.Context, snaps []*storage.Snapshot, q m4.Query, opts Options, rest []gKind, label string) (outs [][]m4.Aggregate, err error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if len(snaps) == 0 {
		return nil, nil
	}
	c := mergeread.StartClock(ctx, opts.Metrics, label)
	mark := c.Now()
	plans := make([]*seriesPlan, len(snaps))
	lists := 0
	for i, snap := range snaps {
		plans[i] = newSeriesPlan(ctx, snap, q, opts, c)
		lists += len(plans[i].work)
	}
	par := opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	// One scratch per worker and one task slice, shared by both waves: no
	// task allocates its candidate-loop state. A pooled scratch keeps its
	// view arena and forgets the operator it last served.
	scratch := scratchPool.Get(par)
	for w := range scratch {
		scratch[w].op = nil
	}
	tasks := taskPool.Get(lists * len(rest))[:0]
	// The query owns the columns its loads decoded, and its tables, until
	// it ends, and then, on success, error and cancellation alike, they go
	// back: both waves have joined by then, and the aggregates are copies
	// of the points they kept. The probes bound to the columns go too. The
	// aggregates themselves are the answer, and go back only on failure.
	defer func() {
		for _, p := range plans {
			for i := range p.op.states {
				cs := &p.op.states[i]
				cs.ref.Recycle(cs.times, cs.values)
				cs.times, cs.values, cs.probe = nil, nil, nil
			}
			p.release()
			if err != nil {
				AggregatePool.Put(p.out)
			}
		}
		scratchPool.Put(scratch)
		taskPool.Put(tasks)
	}()
	mark = c.Phase("plan", mark)

	for _, p := range plans {
		for k := range p.work {
			tasks = append(tasks, task{p, k, gFP})
		}
	}
	err = runWave(ctx, scratch, tasks, len(snaps))
	mark = c.Phase("wave-fp", mark)
	if err != nil {
		return nil, err
	}
	tasks = tasks[:0]
	for _, p := range plans {
		for k := range p.work {
			if p.results[k][gFP].ok {
				for _, g := range rest {
					tasks = append(tasks, task{p, k, g})
				}
			}
		}
	}
	err = runWave(ctx, scratch, tasks, len(snaps))
	mark = c.Phase("wave-rest", mark)
	if err != nil {
		return nil, err
	}
	outs = make([][]m4.Aggregate, len(plans))
	for pi, p := range plans {
		if err = p.assemble(rest); err != nil {
			return nil, err
		}
		outs[pi] = p.out
	}
	c.Phase("assemble", mark)
	for _, p := range plans {
		c.Series(p.op.stats, p.statsBefore)
	}
	c.Done()
	return outs, nil
}

// task is the unit of work of both waves: function g over the chunk list
// p.work[k], its result landing in p.results[k][g].
type task struct {
	p *seriesPlan
	k int
	g gKind
}

// runWave runs one wave's tasks on the shared pool, each on its worker's
// scratch. Tasks are laid out in (series, list, kind) order, and the pool
// reports the failure of the lowest-index failing task, so the error a
// wave returns — named by span and, in a batch, by series — does not depend
// on the worker count. A done context wins over any task error. Once the
// pool has joined, every worker's counters and task timings are flushed,
// so the series' stats are final whatever the wave's outcome.
func runWave(ctx context.Context, scratch []spanComputer, tasks []task, batch int) error {
	err := govern.RunPool(len(scratch), len(tasks), func(w, t int) error {
		tk := tasks[t]
		p, l := tk.p, tk.p.work[tk.k]
		r := &p.results[tk.k][tk.g]
		var err error
		r.pt, r.ok, err = p.op.timedG(&scratch[w], l/2, p.listRange(l), p.chunks(l), tk.g)
		if err != nil {
			return mergeread.SeriesError(batch, p.op.snap.SeriesID, fmt.Errorf("m4lsm: span %d: %w", l/2, err))
		}
		return nil
	})
	for w := range scratch {
		scratch[w].flush()
	}
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}

// timedG wraps computeG with per-task timing when the query's clock is
// armed; otherwise it forwards with zero overhead beyond one nil check.
// The trace gets each task as it ends, the task histogram the worker's
// tally when the wave ends.
func (op *operator) timedG(sc *spanComputer, spanIdx int, r series.TimeRange, chunks []assignment, g gKind) (series.Point, bool, error) {
	if op.clock == nil {
		return op.computeG(sc, r, chunks, g)
	}
	t0 := time.Now()
	pt, ok, err := op.computeG(sc, r, chunks, g)
	op.clock.TaskTo(&sc.tasks, spanIdx, g.String(), t0)
	return pt, ok, err
}

// computeG evaluates one representation function over one chunk list's
// range r, on the worker's scratch sc. Views are task-local; concurrent
// tasks share only chunk states and summaries, both behind the chunk's
// mutex. The task's counters stay in the worker's scratch until the wave
// ends (spanComputer.flush).
func (op *operator) computeG(sc *spanComputer, r series.TimeRange, chunks []assignment, g gKind) (series.Point, bool, error) {
	if err := op.ctxErr(); err != nil {
		return series.Point{}, false, err
	}
	// Strict queries abort outright on a blown deadline; lenient ones keep
	// going — the candidate loop itself is metadata-cheap, and any further
	// chunk load is refused by ChargeChunk and degrades via chunkFailed.
	if op.opts.Strict {
		if err := op.budget.CheckDeadline(); err != nil {
			return series.Point{}, false, err
		}
	}
	sc.reset(op, r, chunks)
	if op.opts.EagerLoad {
		for i := range sc.views {
			v := &sc.views[i]
			if err := sc.chunkFailed(v, sc.materialize(v)); err != nil {
				return series.Point{}, false, err
			}
		}
	}
	if g == gFP || g == gLP {
		return sc.computeTimeExtreme(g == gFP)
	}
	return sc.computeValueExtreme(g == gBP)
}
