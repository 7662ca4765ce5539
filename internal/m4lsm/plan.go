package m4lsm

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"m4lsm/internal/govern"
	"m4lsm/internal/m4"
	"m4lsm/internal/mergeread"
	"m4lsm/internal/series"
	"m4lsm/internal/slicepool"
	"m4lsm/internal/storage"
)

// operator is one series' share of a query's execution state: its chunk
// states, its deletes and delete index, and its per-series stats.
type operator struct {
	ctx      context.Context
	done     <-chan struct{} // ctx.Done(), captured once: see ctxErr
	snap     *storage.Snapshot
	q        m4.Query
	opts     Options
	stats    *storage.Stats
	states   []chunkState     // a slab of one per snapshot chunk, filled in plan order
	deletes  []storage.Delete // sorted by version
	deleteIx *storage.DeleteIndex
	budget   *govern.Budget // nil: unbudgeted (methods are nil-safe)
	degraded atomic.Bool    // a chunk was dropped; the result is partial

	clock *mergeread.Clock // nil unless the query is traced or metered
}

// ctxErr is the query context's error, polled without taking the
// context's lock: a non-blocking receive on the Done channel captured with
// the plan, and ctx.Err() only once that channel is closed. Tasks and
// loads poll it thousands of times per query.
func (op *operator) ctxErr() error {
	select {
	case <-op.done:
		return op.ctx.Err()
	default:
		return nil
	}
}

// addState materializes the shared chunkState for one snapshot chunk in
// the plan's slab, which also registers it for the end-of-query pruned
// sweep. The planner calls it on a chunk's first list assignment only, so
// chunks the pyramid answers around never take a state at all. The slab
// holds one state per snapshot chunk, so it never grows and the states
// never move.
func (op *operator) addState(ref storage.ChunkRef) *chunkState {
	n := len(op.states)
	op.states = op.states[:n+1]
	cs := &op.states[n]
	*cs = chunkState{ref: ref, meta: ref.Meta}
	return cs
}

// seriesPlan is one series' share of a batched query: its operator, its
// chunk lists and the task results the two waves fill in.
//
// Span i owns chunk lists 2i and 2i+1. A plain span is list 2i's candidate
// loop over the whole span (list 2i+1 stays empty). A pyramid span, whose
// interior the pyramid answers with precomputed cells, is its left
// boundary fragment (list 2i), the cells, and its right fragment (list
// 2i+1), folded in time order. Every list is a range of the same candidate
// loop, so every list takes the same two waves.
type seriesPlan struct {
	op          *operator
	assigned    []assignment // every chunk list, one after another
	listOff     []int        // list l's chunks are assigned[listOff[l]:listOff[l+1]]
	out         []m4.Aggregate
	work        []int                 // lists with at least one chunk, in list order
	results     [][gCount]gResult     // parallel to work, one slot per kind
	pyr         []storage.PyramidSpan // per span; nil when the snapshot has no pyramid
	pyrPlanned  int                   // the spans the pyramid answers
	bounds      []int64               // span i is [bounds[i], bounds[i+1]), q.Span taken once
	statsBefore storage.Stats
}

// A query's tables come from size-classed pools, and it hands them back
// when it ends (computeMultiKinds' deferred recycle), so a query allocates
// about what it returns. Two tables leave the operator: a plan's out, the
// aggregates ComputeMultiContext answers with, and the points
// ReduceMultiContext flattens them into. Their pools are exported so that
// whoever ends up owning them can hand them back (m4ql.Outcome.Release);
// a caller that never does leaves them to the collector. Under the race
// detector everything handed back is poisoned (slicepool.Pool.Poison): a
// read after release is a wrong answer, not a silent one.
var (
	// PointPool holds ReduceMultiContext's flattened points.
	PointPool = slicepool.Pool[series.Point]{Poison: poisonPoint}
	// AggregatePool holds the per-span aggregates of a plan.
	AggregatePool = slicepool.Pool[m4.Aggregate]{Poison: m4.Aggregate{
		First: poisonPoint, Last: poisonPoint, Bottom: poisonPoint, Top: poisonPoint}}

	boundsPool     = slicepool.Pool[int64]{Poison: math.MinInt64}
	intPool        = slicepool.Pool[int]{Poison: math.MinInt}
	assignmentPool slicepool.Pool[assignment]
	resultPool     = slicepool.Pool[[gCount]gResult]{Poison: [gCount]gResult{
		{poisonPoint, true}, {poisonPoint, true}, {poisonPoint, true}, {poisonPoint, true}}}
	spanPool    = slicepool.Pool[storage.PyramidSpan]{Poison: storage.PyramidSpan{Lo: math.MinInt64, Hi: math.MinInt64, Cells: math.MinInt}}
	statePool   slicepool.Pool[chunkState]
	taskPool    slicepool.Pool[task]
	scratchPool slicepool.Pool[spanComputer]
)

// poisonPoint is what a released point reads as under the race detector.
var poisonPoint = series.Point{T: math.MinInt64, V: math.NaN()}

// release hands the plan's tables back to their pools once the query's
// workers have joined and its columns are recycled. The aggregates are not
// among them: the query answers with them.
func (p *seriesPlan) release() {
	boundsPool.Put(p.bounds)
	intPool.Put(p.listOff)
	intPool.Put(p.work)
	assignmentPool.Put(p.assigned)
	resultPool.Put(p.results)
	spanPool.Put(p.pyr)
	statePool.Put(p.op.states)
}

// newSeriesPlan builds the per-series operator state: one shared chunkState
// per assigned chunk (the singleflight gate), deletes sorted by version,
// chunks distributed to lists by index interval, and spans with no chunks
// answered Empty with no task at all. Every table comes from the plan
// pools, and release hands them back when the query ends.
func newSeriesPlan(ctx context.Context, snap *storage.Snapshot, q m4.Query, opts Options, c *mergeread.Clock) *seriesPlan {
	op := &operator{ctx: ctx, done: ctx.Done(), snap: snap, q: q, opts: opts, stats: snap.Stats, budget: opts.Budget, clock: c}
	if op.stats == nil {
		op.stats = &storage.Stats{}
	}
	op.deletes = append([]storage.Delete(nil), snap.Deletes...)
	sort.Slice(op.deletes, func(i, j int) bool { return op.deletes[i].Version < op.deletes[j].Version })
	op.deleteIx = storage.NewDeleteIndex(op.deletes)

	p := &seriesPlan{op: op, statsBefore: c.Before(op.stats)}
	p.bounds = boundsPool.Get(q.W + 1)
	for i := range p.bounds {
		p.bounds[i] = q.SpanStart(i)
	}
	p.out = AggregatePool.Get(q.W)
	p.pyr, p.pyrPlanned = planPyramid(snap, q, p.out)
	// Chunk states are materialized lazily: a chunk whose every span is
	// answered from pyramid cells, and that misses the boundary fragments,
	// never needs one, and on wide snapshots those per-chunk allocations
	// would otherwise dominate an all-cells query's cost. This pass counts
	// list l's chunks into listOff[l+1], and the lists with any.
	lists := 2 * q.W
	p.listOff = intPool.Get(lists + 1)
	clear(p.listOff)
	op.states = statePool.Get(len(snap.Chunks))[:0]
	nonEmpty := 0
	for ci := range snap.Chunks {
		var cs *chunkState
		p.joinLists(snap.Chunks[ci].Meta, func(l int) {
			if cs == nil {
				cs = op.addState(snap.Chunks[ci])
			}
			if p.listOff[l+1]++; p.listOff[l+1] == 1 {
				nonEmpty++
			}
		})
	}
	// A second pass lays the lists out in one slice, snapshot order within
	// a list, with listOff[l] as list l's fill cursor.
	for l := 1; l <= lists; l++ {
		p.listOff[l] += p.listOff[l-1]
	}
	p.assigned = assignmentPool.Get(p.listOff[lists])
	for i := range op.states {
		cs := &op.states[i]
		p.joinLists(cs.meta, func(l int) {
			p.assigned[p.listOff[l]] = assignment{cs: cs}
			p.listOff[l]++
		})
	}
	copy(p.listOff[1:], p.listOff[:lists])
	p.listOff[0] = 0

	p.work = intPool.Get(nonEmpty)[:0]
	for l := 0; l < lists; l++ {
		if len(p.chunks(l)) > 0 {
			p.work = append(p.work, l)
		}
	}
	p.results = resultPool.Get(len(p.work))
	clear(p.results)
	// A plain span starts Empty and a pyramid span as its folded cells;
	// assemble folds the lists' aggregates around either.
	var pyrSpans, pyrCells, pyrFallback int64
	for i := 0; i < q.W; i++ {
		if p.pyramidSpan(i) {
			pyrSpans++
			pyrCells += int64(p.pyr[i].Cells)
			continue
		}
		p.out[i] = m4.Aggregate{Empty: true}
		if p.pyrPlanned > 0 && len(p.chunks(2*i)) > 0 {
			pyrFallback++
		}
	}
	if pyrSpans+pyrFallback > 0 {
		atomic.AddInt64(&op.stats.PyramidSpans, pyrSpans)
		atomic.AddInt64(&op.stats.PyramidCells, pyrCells)
		atomic.AddInt64(&op.stats.PyramidFallbackSpans, pyrFallback)
	}
	return p
}

// joinLists calls join with every chunk list a chunk with metadata meta
// joins, in list order: each list of the chunk's spans whose range it
// overlaps.
func (p *seriesPlan) joinLists(meta storage.ChunkMeta, join func(l int)) {
	q := p.op.q
	for i := clampSpan(q, meta.First.T); i <= clampSpan(q, meta.Last.T); i++ {
		for l := 2 * i; l < p.listEnd(i); l++ {
			if meta.OverlapsRange(p.listRange(l)) {
				join(l)
			}
		}
	}
}

func clampSpan(q m4.Query, t int64) int {
	if t < q.Tqs {
		t = q.Tqs
	}
	if t >= q.Tqe {
		t = q.Tqe - 1
	}
	return q.SpanIndex(t)
}

// pyramidSpan reports whether the pyramid answers span i's interior.
func (p *seriesPlan) pyramidSpan(i int) bool { return p.pyrPlanned > 0 && p.pyr[i].Cells > 0 }

// listEnd bounds the lists a chunk of span i may join, 2i up to
// listEnd(i): a plain span uses list 2i alone.
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
	span := series.TimeRange{Start: p.bounds[i], End: p.bounds[i+1]}
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

// Pyramid-aware span planning. When the snapshot carries a rollup pyramid
// (storage.Snapshot.Pyramid), a span whose interior decomposes into valid
// precomputed cells is answered as
//
//	left fragment ⊕ folded cells ⊕ right fragment   (⊕ = m4.Aggregate.Merge)
//
// where the fragments are the sub-cell slivers at the span's edges,
// computed exactly by the ordinary candidate loop over only the chunks
// overlapping them. Every cell holds the FP/LP/BP/TP of the fully-merged
// series restricted to its interval (cells are built by mergeread at flush
// time), and Merge is exact over a time-ordered partition, so the
// result is identical to running the candidate loop over the whole span —
// but its cost is O(cells + fragment chunks), independent of how many
// chunks or points the span's interior holds. Spans the pyramid cannot
// cover (stale cells, memtable overlap, fragmented coverage) fall back to
// one list over the whole span.

// planPyramid asks the snapshot's pyramid about every span in one call,
// returning one plan per span (Cells == 0: no pyramid answer) and how many
// it planned, or nil when the pyramid is absent. A planned span's folded
// cells land in out[i]. A caller that wants the plain span path alone
// clears the snapshot's Pyramid.
func planPyramid(snap *storage.Snapshot, q m4.Query, out []m4.Aggregate) ([]storage.PyramidSpan, int) {
	if snap.Pyramid == nil {
		return nil, 0
	}
	spans := spanPool.Get(q.W)
	clear(spans)
	return spans, snap.Pyramid.PlanSpans(q, spans, out)
}

// assemble folds each live list's results into its span's aggregate, in
// time order: list 2i before what out[i] holds, list 2i+1 after it
// (m4.Aggregate.Merge is associative, so a pyramid span comes out as
// left ⊕ cells ⊕ right and a plain span as its list's aggregate).
// Fields whose kind is absent from rest default to the list's FP, which
// is also the FP-substitution rule for degraded (non-strict,
// chunk-dropped) queries. Last, the pruned-chunk count goes into the
// series' stats.
func (p *seriesPlan) assemble(rest []gKind) error {
	op := p.op
	for k, l := range p.work {
		r := &p.results[k]
		if !r[gFP].ok {
			continue
		}
		i, fp := l/2, r[gFP].pt
		agg := m4.Aggregate{First: fp, Last: fp, Bottom: fp, Top: fp}
		slots := [...]*series.Point{gLP: &agg.Last, gBP: &agg.Bottom, gTP: &agg.Top}
		for _, g := range rest {
			if !r[g].ok {
				// With chunks dropped mid-query, a function can come up
				// empty on a list FP proved non-empty (FP answered from
				// metadata, the data load failed later). FP's point is a
				// real surviving point of the list, so keep it — a valid,
				// if non-extremal, representation — and warn.
				if !op.opts.Strict && op.degraded.Load() {
					op.snap.Warnings.Add("span %d: %v lost with its dropped chunks, substituted FP", i, g)
					continue
				}
				return fmt.Errorf("internal: span %d: %v empty after FP found %v", i, g, fp)
			}
			*slots[g] = r[g].pt
		}
		if l%2 == 0 {
			agg.Merge(p.out[i])
			p.out[i] = agg
		} else {
			p.out[i].Merge(agg)
		}
	}
	// Workers have joined; the chunk-state flags are safe to read plainly.
	// Only chunks assigned to a list have states — chunks the pyramid
	// answered around were never candidates, so they don't count as pruned
	// (they show up in pyramidSpans/pyramidCells instead).
	pruned := int64(0)
	for i := range op.states {
		if cs := &op.states[i]; !cs.hasData && cs.probe == nil {
			pruned++
		}
	}
	atomic.AddInt64(&op.stats.ChunksPruned, pruned)
	return nil
}
