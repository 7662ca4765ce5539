package m4lsm

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"

	"m4lsm/internal/govern"
	"m4lsm/internal/m4"
	"m4lsm/internal/mergeread"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
)

// Rest-wave kind lists: which representation functions run in wave 2 after
// FP proves span liveness. M4 needs all three; MinMax needs only the value
// extremes (FP still runs in wave 1 — it is the metadata-cheap emptiness
// prover and the substitution source for degraded reads — but its point is
// not part of the MinMax output).
var (
	restM4     = []gKind{gLP, gBP, gTP}
	restMinMax = []gKind{gBP, gTP}
)

// ComputeMultiContext evaluates one M4 query over several series' snapshots
// as a single batch: the series×span×G tasks of every series feed one shared
// worker pool, so a fleet-style dashboard query (one chart per sensor) costs
// two pool waves total instead of two per series. Results are positional —
// out[i] belongs to snaps[i] — and byte-identical to running ComputeContext
// on each snapshot alone: the decomposition into tasks is the same, only the
// scheduling is batched. Per-series cost counters, warnings and degradation
// stay attributed to each snapshot's own Stats and Warnings.
//
// The single-series ComputeContext is this batch with one plan, so there is
// exactly one candidate-loop implementation to keep correct.
func ComputeMultiContext(ctx context.Context, snaps []*storage.Snapshot, q m4.Query, opts Options) ([][]m4.Aggregate, error) {
	return computeMultiKinds(ctx, snaps, q, opts, restM4, "lsm")
}

// computeMultiKinds is the span×G task machinery shared by every span-based
// representation operator: the rest list selects which functions wave 2
// computes per live span (M4 passes restM4, MinMax passes restMinMax), and
// label names the operator in metrics and traces. Aggregate fields whose
// kind is not in rest are filled with the span's FP, so downstream reducers
// read only the fields their representation defines.
func computeMultiKinds(ctx context.Context, snaps []*storage.Snapshot, q m4.Query, opts Options, rest []gKind, label string) ([][]m4.Aggregate, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if len(snaps) == 0 {
		return nil, nil
	}
	c := mergeread.StartClock(ctx, opts.Metrics, label)
	mark := c.Now()
	// seriesErr attributes a task failure to its span and, in a
	// multi-series batch, to its series.
	seriesErr := func(p *seriesPlan, span int, err error) error {
		return mergeread.SeriesError(len(snaps), p.op.snap.SeriesID, fmt.Errorf("m4lsm: span %d: %w", span, err))
	}

	plans := make([]*seriesPlan, len(snaps))
	for i, snap := range snaps {
		plans[i] = newSeriesPlan(ctx, snap, q, opts, c)
	}
	par := opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	// One scratch per worker, shared by both waves: no task allocates its
	// candidate-loop state.
	scratch := make([]spanComputer, par)
	mark = c.Phase("plan", mark)

	// Wave 1: every series' FP tasks in one pool, alongside the pyramid
	// spans' boundary-fragment tasks (a pyramid span needs no second wave
	// — its one task computes all four functions from two sub-cell
	// fragments plus the precomputed cells). FP proves span emptiness by
	// chaining delete bounds without loading chunk data, so LP/BP/TP work
	// only the spans that survive (see ComputeContext's two-wave
	// rationale — batching does not change the per-series decomposition).
	type fpRef struct {
		plan, k int  // k indexes plan.work (or plan.pyrWork)
		pyramid bool // k is a pyramid span, not an FP task
	}
	var fpTasks []fpRef
	for pi, p := range plans {
		for k := range p.work {
			fpTasks = append(fpTasks, fpRef{pi, k, false})
		}
		for k := range p.pyrWork {
			fpTasks = append(fpTasks, fpRef{pi, k, true})
		}
	}
	govern.RunPool(par, len(fpTasks), func(w, t int) error {
		sc := &scratch[w]
		ref := fpTasks[t]
		p := plans[ref.plan]
		if ref.pyramid {
			err := p.computePyramidSpan(sc, ref.k)
			p.pyrErrs[ref.k] = err
			return err
		}
		span := p.work[ref.k]
		pt, ok, err := p.op.timedG(sc, span, q.Span(span), p.chunks(2*span), gFP)
		p.firsts[ref.k] = gResult{pt: pt, ok: ok, err: err}
		return err
	})
	mark = c.Phase("wave-fp", mark)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, p := range plans {
		for k, i := range p.pyrWork {
			if err := p.pyrErrs[k]; err != nil {
				return nil, seriesErr(p, i, err)
			}
		}
		for k, i := range p.work {
			if err := p.firsts[k].err; err != nil {
				return nil, seriesErr(p, i, err)
			}
			if p.firsts[k].ok {
				p.live = append(p.live, k)
			} else {
				p.out[i] = m4.Aggregate{Empty: true}
			}
		}
	}

	// Wave 2: the representation's rest kinds (LP/BP/TP for M4, BP/TP for
	// MinMax) for every live span of every series, one pool.
	restCount := len(rest)
	type restRef struct{ plan, j, kind int } // j indexes plan.live, kind indexes rest
	var restTasks []restRef
	for pi, p := range plans {
		p.rests = make([]gResult, restCount*len(p.live))
		for j := range p.live {
			for kind := 0; kind < restCount; kind++ {
				restTasks = append(restTasks, restRef{pi, j, kind})
			}
		}
	}
	govern.RunPool(par, len(restTasks), func(w, t int) error {
		sc := &scratch[w]
		ref := restTasks[t]
		p := plans[ref.plan]
		span := p.work[p.live[ref.j]]
		pt, ok, err := p.op.timedG(sc, span, q.Span(span), p.chunks(2*span), rest[ref.kind])
		p.rests[restCount*ref.j+ref.kind] = gResult{pt: pt, ok: ok, err: err}
		return err
	})
	mark = c.Phase("wave-rest", mark)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Report the first error in (series, span) order before assembling:
	// after a failure the pool stops early, leaving later tasks with zero
	// results that must not be mistaken for empty spans.
	for _, p := range plans {
		for j, k := range p.live {
			i := p.work[k]
			for _, r := range p.rests[restCount*j : restCount*j+restCount] {
				if r.err != nil {
					return nil, seriesErr(p, i, r.err)
				}
			}
		}
	}
	outs := make([][]m4.Aggregate, len(plans))
	for pi, p := range plans {
		if err := p.assemble(rest); err != nil {
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

// seriesPlan is one series' share of a batched query: its operator (chunk
// states, delete index, per-series stats), the chunk lists of its spans and
// pyramid fragments, and the task-result slots the two waves fill in.
type seriesPlan struct {
	op          *operator
	assigned    []assignment // every chunk list, one after another
	listOff     []int        // list l's chunks are assigned[listOff[l]:listOff[l+1]]
	out         []m4.Aggregate
	work        []int // span indexes with at least one chunk
	firsts      []gResult
	live        []int // indexes into work with surviving points
	rests       []gResult
	pyr         []storage.PyramidSpan // per span; nil when the pyramid answers none
	pyrWork     []int                 // pyramid spans with boundary chunks to compute
	pyrErrs     []error               // parallel to pyrWork, filled by wave 1
	statsBefore storage.Stats
}

// newSeriesPlan builds the per-series operator state exactly the way the
// single-series path always has: one shared chunkState per assigned chunk
// (the singleflight gate), deletes sorted by version, chunks distributed to
// spans by index interval, and spans with no chunks answered Empty with no
// task at all.
func newSeriesPlan(ctx context.Context, snap *storage.Snapshot, q m4.Query, opts Options, c *mergeread.Clock) *seriesPlan {
	op := &operator{ctx: ctx, snap: snap, q: q, opts: opts, stats: snap.Stats, budget: opts.Budget, clock: c}
	if op.stats == nil {
		op.stats = &storage.Stats{}
	}
	op.deletes = append([]storage.Delete(nil), snap.Deletes...)
	sort.Slice(op.deletes, func(i, j int) bool { return op.deletes[i].Version < op.deletes[j].Version })
	op.deleteIx = storage.NewDeleteIndex(op.deletes)

	p := &seriesPlan{op: op, statsBefore: c.Before(op.stats)}
	p.out = make([]m4.Aggregate, q.W)
	p.pyr = planPyramid(snap, q, p.out)
	// Span i has chunk lists 2i and 2i+1 (see listEnd), and a chunk joins
	// each list of its spans whose range it overlaps. Chunk states are
	// materialized lazily: a chunk whose every span is answered from
	// pyramid cells, and that misses the boundary fragments, never needs
	// one, and on wide snapshots those per-chunk allocations would
	// otherwise dominate an all-cells query's cost. This pass counts list
	// l's chunks into listOff[l+1].
	lists := 2 * q.W
	p.listOff = make([]int, lists+1)
	for ci := range snap.Chunks {
		meta := snap.Chunks[ci].Meta
		var cs *chunkState
		for i := clampSpan(q, meta.First.T); i <= clampSpan(q, meta.Last.T); i++ {
			for l := 2 * i; l < p.listEnd(i); l++ {
				if meta.OverlapsRange(p.listRange(l)) {
					if cs == nil {
						cs = op.addState(snap.Chunks[ci])
					}
					p.listOff[l+1]++
				}
			}
		}
	}
	// A second pass lays the lists out in one slice, snapshot order within
	// a list, with listOff[l] as list l's fill cursor.
	for l := 1; l <= lists; l++ {
		p.listOff[l] += p.listOff[l-1]
	}
	p.assigned = make([]assignment, p.listOff[lists])
	for _, cs := range op.states {
		for i := clampSpan(q, cs.meta.First.T); i <= clampSpan(q, cs.meta.Last.T); i++ {
			for l := 2 * i; l < p.listEnd(i); l++ {
				if cs.meta.OverlapsRange(p.listRange(l)) {
					p.assigned[p.listOff[l]] = assignment{cs: cs}
					p.listOff[l]++
				}
			}
		}
	}
	copy(p.listOff[1:], p.listOff[:lists])
	p.listOff[0] = 0

	p.work = make([]int, 0, q.W)
	var pyrSpans, pyrCells, pyrFallback int64
	for i := 0; i < q.W; i++ {
		if q.Span(i).Empty() {
			p.out[i] = m4.Aggregate{Empty: true}
			continue
		}
		if p.pyramidSpan(i) {
			pyrSpans++
			pyrCells += int64(p.pyr[i].Cells)
			// With both fragments provably empty the span is its
			// cells, already in p.out: zero tasks.
			if len(p.chunks(2*i)) > 0 || len(p.chunks(2*i+1)) > 0 {
				p.pyrWork = append(p.pyrWork, i)
			}
			continue
		}
		if len(p.chunks(2*i)) == 0 {
			p.out[i] = m4.Aggregate{Empty: true}
			continue
		}
		if p.pyr != nil {
			pyrFallback++
		}
		p.work = append(p.work, i)
	}
	if pyrSpans+pyrFallback > 0 {
		atomic.AddInt64(&op.stats.PyramidSpans, pyrSpans)
		atomic.AddInt64(&op.stats.PyramidCells, pyrCells)
		atomic.AddInt64(&op.stats.PyramidFallbackSpans, pyrFallback)
	}
	p.firsts = make([]gResult, len(p.work))
	p.pyrErrs = make([]error, len(p.pyrWork))
	return p
}

// pyramidSpan reports whether the pyramid answers span i's interior.
func (p *seriesPlan) pyramidSpan(i int) bool { return p.pyr != nil && p.pyr[i].Cells > 0 }

// Span i owns chunk lists 2i and 2i+1: its left and right boundary
// fragments when the pyramid answers its interior, otherwise its own
// candidate loop and an unused, always empty list. listEnd bounds the lists
// a chunk may join, 2i up to listEnd(i).
func (p *seriesPlan) listEnd(i int) int {
	if p.pyramidSpan(i) {
		return 2*i + 2
	}
	return 2*i + 1
}

// listRange returns the time range of chunk list l; the chunks overlapping
// it join the list. An empty range, such as a zero-width span's (W > range)
// or an empty fragment, attaches no chunk.
func (p *seriesPlan) listRange(l int) series.TimeRange {
	i := l / 2
	span := p.op.q.Span(i)
	switch {
	case !p.pyramidSpan(i):
		return span
	case l%2 == 1:
		return series.TimeRange{Start: p.pyr[i].Hi, End: span.End}
	default:
		return series.TimeRange{Start: span.Start, End: p.pyr[i].Lo}
	}
}

// chunks returns the chunks of list l.
func (p *seriesPlan) chunks(l int) []assignment {
	return p.assigned[p.listOff[l]:p.listOff[l+1]]
}

// assemble combines the wave results into the series' aggregates, applying
// the FP-substitution rule for degraded (non-strict, chunk-dropped) queries
// and folding the pruned-chunk count into the series' stats. Fields whose
// kind is absent from rest default to the span's FP.
func (p *seriesPlan) assemble(rest []gKind) error {
	restCount := len(rest)
	op := p.op
	for j, k := range p.live {
		i := p.work[k]
		fp := p.firsts[k].pt
		g := p.rests[restCount*j : restCount*j+restCount]
		agg := m4.Aggregate{First: fp, Last: fp, Bottom: fp, Top: fp}
		for kind, r := range g {
			if !r.ok {
				// With chunks dropped mid-query, a function can come up
				// empty on a span FP proved non-empty (FP answered from
				// metadata, the data load failed later). FP's point is a
				// real surviving point of the span, so substitute it — a
				// valid, if non-extremal, representation — and warn.
				if !op.opts.Strict && op.degraded.Load() {
					// The aggregate fields default to FP, so skipping the
					// assignment below is the substitution.
					op.snap.Warnings.Add("span %d: %v lost with its dropped chunks, substituted FP", i, rest[kind])
					continue
				}
				return fmt.Errorf("internal: span %d: %v empty after FP found %v", i, rest[kind], fp)
			}
			switch rest[kind] {
			case gLP:
				agg.Last = r.pt
			case gBP:
				agg.Bottom = r.pt
			case gTP:
				agg.Top = r.pt
			}
		}
		p.out[i] = agg
	}
	// Workers have joined; the chunk-state flags are safe to read plainly.
	// Only chunks assigned to a span or fragment have states — chunks the
	// pyramid answered around were never candidates, so they don't count
	// as pruned (they show up in pyramidSpans/pyramidCells instead).
	pruned := int64(0)
	for _, cs := range op.states {
		if !cs.hasData && !cs.hasTimes {
			pruned++
		}
	}
	atomic.AddInt64(&op.stats.ChunksPruned, pruned)
	return nil
}
