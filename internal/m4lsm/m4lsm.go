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
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"m4lsm/internal/govern"
	"m4lsm/internal/m4"
	"m4lsm/internal/mergeread"
	"m4lsm/internal/obs"
	"m4lsm/internal/series"
	"m4lsm/internal/stepreg"
	"m4lsm/internal/storage"
)

// Options tune the operator; the zero value is the paper's configuration
// (run on every available core). The non-default settings exist for the
// ablation studies in DESIGN.md §6.
type Options struct {
	// Parallelism bounds the worker goroutines that evaluate the 4·w
	// (span, G) tasks: 0 uses GOMAXPROCS, 1 runs single-threaded on the
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
// The implementation is a one-series batch: see ComputeMultiContext in
// multi.go, which plans the (span, G) task decomposition, runs the two
// waves (FP first, then LP/BP/TP for the surviving spans) over the shared
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

// timedG wraps computeG with per-task timing when the query's clock is
// armed; otherwise it forwards with zero overhead beyond one nil check.
func (op *operator) timedG(sc *spanComputer, spanIdx int, span series.TimeRange, chunks []assignment, g gKind) (series.Point, bool, error) {
	if op.clock == nil {
		return op.computeG(sc, span, chunks, g)
	}
	t0 := time.Now()
	pt, ok, err := op.computeG(sc, span, chunks, g)
	op.clock.Task(spanIdx, g.String(), t0)
	return pt, ok, err
}

// gKind names the four representation functions as task coordinates.
type gKind uint8

const (
	gFP gKind = iota // FirstPoint
	gLP              // LastPoint
	gBP              // BottomPoint
	gTP              // TopPoint
)

// gCount is the number of representation functions (tasks per span).
const gCount = int(gTP) + 1

func (g gKind) String() string {
	switch g {
	case gFP:
		return "FP"
	case gLP:
		return "LP"
	case gBP:
		return "BP"
	default:
		return "TP"
	}
}

// gResult is one task's output: the representation point of one function
// over one span, ok=false when the span has no surviving points.
type gResult struct {
	pt  series.Point
	ok  bool
	err error
}

// computeG evaluates one representation function over one span: the unit
// of work the pool schedules, run on the worker's scratch sc. Views are
// task-local; concurrent tasks share only chunk states and summaries, both
// behind the chunk's mutex. Per-task counters flush into the shared stats
// with one Add on the way out.
func (op *operator) computeG(sc *spanComputer, span series.TimeRange, chunks []assignment, g gKind) (series.Point, bool, error) {
	if err := op.ctx.Err(); err != nil {
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
	sc.reset(op, span, chunks)
	defer func() { op.stats.Add(sc.local) }()
	if op.opts.EagerLoad {
		for i := range sc.views {
			v := &sc.views[i]
			if err := sc.materialize(v); err != nil {
				if err := sc.chunkFailed(v, err); err != nil {
					return series.Point{}, false, err
				}
			}
		}
	}
	switch g {
	case gFP:
		return sc.computeTimeExtreme(true)
	case gLP:
		return sc.computeTimeExtreme(false)
	case gBP:
		return sc.computeValueExtreme(true)
	default:
		return sc.computeValueExtreme(false)
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

type operator struct {
	ctx      context.Context
	snap     *storage.Snapshot
	q        m4.Query
	opts     Options
	stats    *storage.Stats
	states   []*chunkState
	deletes  []storage.Delete // sorted by version
	deleteIx *storage.DeleteIndex
	budget   *govern.Budget // nil: unbudgeted (methods are nil-safe)
	degraded atomic.Bool    // a chunk was dropped; the result is partial

	clock *mergeread.Clock // nil unless the query is traced or metered
}

// addState materializes the shared chunkState for one snapshot chunk and
// registers it for the end-of-query pruned sweep. The planner calls it on a
// chunk's first span/fragment assignment only, so chunks the pyramid answers
// around never allocate a state at all.
func (op *operator) addState(ref storage.ChunkRef) *chunkState {
	cs := &chunkState{ref: ref, meta: ref.Meta}
	op.states = append(op.states, cs)
	return cs
}

// reportBad records an unreadable chunk exactly once per query, flagging
// the result as degraded and notifying the snapshot (warning + quarantine).
func (op *operator) reportBad(cs *chunkState, err error) {
	op.degraded.Store(true)
	cs.mu.Lock()
	already := cs.reported
	cs.reported = true
	cs.mu.Unlock()
	if !already {
		op.snap.ReportBadChunk(cs.meta, err)
	}
}

// budgetDenied records a chunk the budget refused to load: the result is
// degraded and a warning names the chunk, but — unlike reportBad — the
// snapshot producer is NOT notified, because nothing is wrong with the
// chunk's bytes and it must not be quarantined.
func (op *operator) budgetDenied(cs *chunkState, err error) {
	op.degraded.Store(true)
	cs.mu.Lock()
	already := cs.reported
	cs.reported = true
	cs.mu.Unlock()
	if !already {
		op.snap.Warnings.Add("chunk %s v%d skipped by budget: %v", cs.meta.SeriesID, cs.meta.Version, err)
	}
}

// chunkState caches per-chunk loads across spans and functions. The mutex
// is the singleflight gate: N workers racing to materialize the same chunk
// serialize on it, the first performs the LoadTimes/Load/LoadValues I/O,
// and the rest find the columns already present — exactly one load per
// chunk per query regardless of parallelism. The loaded columns are written
// once under the lock and never mutated, so post-ensure reads outside the
// lock are safe. The lock also guards the chunk's assignments' summaries.
type chunkState struct {
	ref  storage.ChunkRef
	meta storage.ChunkMeta

	mu       sync.Mutex
	times    []int64   // the timestamp column: of the full load itself, or of an earlier partial load
	values   []float64 // the value column, nil until a full load
	probe    stepreg.Probe
	hasData  bool
	hasTimes bool
	loadErr  error // sticky: a failed load is not retried per worker
	reported bool  // the failure has been reported to the snapshot
}

func (op *operator) ensureTimes(cs *chunkState) error {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.loadErr != nil {
		return cs.loadErr
	}
	if cs.hasTimes {
		return nil
	}
	if op.opts.DisablePartialLoad {
		return op.ensureDataLocked(cs)
	}
	// Cancellation and budget are checked before I/O only and never made
	// sticky: a cancelled or budget-refused load must not poison the chunk
	// state for other queries' semantics or mask the real error
	// classification. (A later query with a fresh budget may load it.)
	if err := op.ctx.Err(); err != nil {
		return err
	}
	if err := op.budget.ChargeChunk(0); err != nil {
		return err
	}
	ts, err := cs.ref.LoadTimes()
	if err != nil {
		cs.loadErr = err
		return err
	}
	cs.times = ts
	cs.buildProbe(op.opts)
	cs.hasTimes = true
	return nil
}

func (op *operator) ensureDataLocked(cs *chunkState) error {
	if cs.loadErr != nil {
		return cs.loadErr
	}
	if cs.hasData {
		return nil
	}
	if err := op.ctx.Err(); err != nil {
		return err
	}
	if err := op.budget.ChargeChunk(int64(cs.meta.Count)); err != nil {
		return err
	}
	// With the timestamps already here, the rest of the load is the value
	// block alone: no chunk's timestamp block is decoded twice.
	var err error
	if cs.hasTimes {
		cs.values, err = cs.ref.LoadValues()
	} else {
		var cols series.Columns
		cols, err = cs.ref.Load()
		cs.times, cs.values = cols.Times(), cols.Values()
	}
	if err != nil {
		cs.loadErr = err
		return err
	}
	if !cs.hasTimes {
		cs.buildProbe(op.opts)
		cs.hasTimes = true
	}
	cs.hasData = true
	return nil
}

func (cs *chunkState) buildProbe(opts Options) {
	if opts.DisableStepIndex {
		cs.probe = stepreg.NewPlain(cs.times)
	} else {
		cs.probe = stepreg.Build(cs.times)
	}
}

// exists probes whether the chunk contains a point at exactly t
// (Table 1 case a).
func (sc *spanComputer) exists(cs *chunkState, t int64) (bool, error) {
	if err := sc.op.ensureTimes(cs); err != nil {
		return false, err
	}
	sc.local.IndexProbes++
	sc.local.ExistProbes++
	return cs.probe.Exists(t), nil
}

// gState tracks what a view knows about one representation point.
type gState uint8

const (
	// stPoint: an actual chunk point from clean metadata; deletes not yet
	// verified against it.
	stPoint gState = iota
	// stVerifiedPoint: a surviving point recomputed from loaded data
	// under deletes and known overwrites.
	stVerifiedPoint
	// stBoundTime (FP/LP only): pt.T bounds the restricted time
	// (true FP.t >= bound / true LP.t <= bound); the value is unknown.
	stBoundTime
	// stVerifiedTime (FP/LP only): pt.T is an exact surviving timestamp
	// found by an index probe; the value is not loaded yet.
	stVerifiedTime
	// stBoundValue (BP/TP only): pt.V bounds the restricted extremum
	// (true BP.v >= bound / true TP.v <= bound); the chunk is split by
	// the span and its extremum lies outside it.
	stBoundValue
)

type gSlot struct {
	st gState
	pt series.Point
}

// assignment is one chunk assigned to one range of a query: a span, or a
// pyramid span's boundary fragment (whose four functions run in one task).
// Every task over the range works on the same assignment, and so shares
// the chunk's summary over exactly that range.
type assignment struct {
	cs  *chunkState
	sum summary // guarded by cs.mu
}

// summary is a chunk's FP/LP/BP/TP over its assignment's range after the
// query's deletes, as positions into its columns (first < 0: none
// survives). It is a function of the chunk, range and deletes alone, so
// whichever task computes it, every result stays byte-identical.
type summary struct {
	scanned                  bool
	first, last, bottom, top int
}

// view is one chunk restricted to one span (an element of C” in §3.1).
type view struct {
	*assignment
	ver      storage.Version
	first    gSlot
	last     gSlot
	bottom   gSlot
	top      gSlot
	excluded []int64 // sorted timestamps verified overwritten by later chunks
	dead     bool    // no surviving points in the span
}

// spanComputer runs one candidate loop for one span. It is a worker's
// scratch, reset by every task it runs: its views (and their slots and
// exclusion sets) belong to a single goroutine, and operator counters
// accumulate in local before one flush when the task finishes.
type spanComputer struct {
	op    *operator
	span  series.TimeRange
	views []view
	local storage.Stats
}

// reset points the scratch at a new task, reusing its view arena.
func (sc *spanComputer) reset(op *operator, span series.TimeRange, chunks []assignment) {
	sc.op, sc.span, sc.local = op, span, storage.Stats{}
	if cap(sc.views) < len(chunks) {
		sc.views = make([]view, len(chunks))
	}
	sc.views = sc.views[:len(chunks)]
	for i := range chunks {
		sc.views[i].reset(&chunks[i], span)
	}
}

// reset restricts chunk metadata to the span: the virtual deletes of §3.1.
// Metadata points falling outside the span degrade to bounds.
func (v *view) reset(a *assignment, span series.TimeRange) {
	m := a.cs.meta
	*v = view{assignment: a, ver: m.Version, excluded: v.excluded[:0]}
	if m.First.T >= span.Start {
		v.first = gSlot{st: stPoint, pt: m.First}
	} else {
		v.first = gSlot{st: stBoundTime, pt: series.Point{T: span.Start}}
	}
	if m.Last.T < span.End {
		v.last = gSlot{st: stPoint, pt: m.Last}
	} else {
		v.last = gSlot{st: stBoundTime, pt: series.Point{T: span.End - 1}}
	}
	if span.Contains(m.Bottom.T) {
		v.bottom = gSlot{st: stPoint, pt: m.Bottom}
	} else {
		v.bottom = gSlot{st: stBoundValue, pt: series.Point{V: m.Bottom.V}}
	}
	if span.Contains(m.Top.T) {
		v.top = gSlot{st: stPoint, pt: m.Top}
	} else {
		v.top = gSlot{st: stBoundValue, pt: series.Point{V: m.Top.V}}
	}
}

// chunkFailed routes a chunk read error: under Strict — or when the query's
// context is done, whatever the error says — it propagates; otherwise the
// chunk is reported once and this task's view of it dies, so the candidate
// loop continues over the remaining chunks (graceful degradation).
func (sc *spanComputer) chunkFailed(v *view, err error) error {
	if cerr := sc.op.ctx.Err(); cerr != nil {
		return cerr
	}
	if sc.op.opts.Strict {
		return err
	}
	if errors.Is(err, govern.ErrBudgetExceeded) {
		sc.op.budgetDenied(v.cs, err)
		v.dead = true
		return nil
	}
	sc.op.reportBad(v.cs, err)
	v.dead = true
	return nil
}

// deletedLater returns a delete with a larger version than ver covering t,
// i.e. the ⊨ test of Propositions 3.1/3.3.
func (sc *spanComputer) deletedLater(t int64, ver storage.Version) (storage.Delete, bool) {
	for _, d := range sc.op.deletes {
		if d.Version > ver && d.Covers(t) {
			return d, true
		}
	}
	return storage.Delete{}, false
}

// overwrittenLater reports whether any later chunk in the span contains a
// point at exactly t (the first condition of Proposition 3.3). Per
// Definition 2.7 this holds regardless of whether that later point is
// itself deleted.
func (sc *spanComputer) overwrittenLater(t int64, ver storage.Version) (bool, error) {
	for i := range sc.views {
		w := &sc.views[i]
		if w.ver <= ver {
			continue
		}
		if t < w.cs.meta.First.T || t > w.cs.meta.Last.T {
			continue
		}
		ok, err := sc.exists(w.cs, t)
		if err != nil {
			// The probed chunk (not the candidate's) is unreadable: drop
			// it from the query and treat it as not overwriting.
			if err := sc.chunkFailed(w, err); err != nil {
				return false, err
			}
			continue
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// materialize loads the chunk and recalculates the view's metadata under
// the span, deletes and known overwrites (Table 1 case c).
func (sc *spanComputer) materialize(v *view) error {
	s, err := sc.op.summarize(v.assignment, sc.span, v.excluded)
	if err != nil {
		return err
	}
	if s.first < 0 {
		v.dead = true
		return nil
	}
	ts, vs := v.cs.times, v.cs.values
	at := func(i int) gSlot { return gSlot{st: stVerifiedPoint, pt: series.Point{T: ts[i], V: vs[i]}} }
	v.first, v.last, v.bottom, v.top = at(s.first), at(s.last), at(s.bottom), at(s.top)
	return nil
}

// summarize loads the chunk and returns its summary over r, under the
// chunk's singleflight mutex. Without exclusions that is the assignment's
// shared summary, scanned once per (chunk, range) per query by whichever
// task gets there first; a view's overwrite exclusions are its own task's
// business, so with any the range is scanned afresh and nothing is shared.
func (op *operator) summarize(a *assignment, r series.TimeRange, excluded []int64) (summary, error) {
	cs := a.cs
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if err := op.ensureDataLocked(cs); err != nil {
		return summary{}, err
	}
	if len(excluded) > 0 {
		return op.scan(cs, r, excluded), nil
	}
	if !a.sum.scanned {
		a.sum = op.scan(cs, r, nil)
	}
	return a.sum, nil
}

// scan finds the surviving FP/LP/BP/TP of the chunk's columns over r in
// one pass, skipping the sorted excluded timestamps and deleted points. A
// range query on the delete index decides whether any delete applies at
// all; only if one does is each point checked, by a sweep beside the
// column. Ties resolve as in storage.ComputeMeta: the first strictly
// smaller (larger) value wins.
func (op *operator) scan(cs *chunkState, r series.TimeRange, excluded []int64) summary {
	ts, vs := cs.times, cs.values
	lo, _ := slices.BinarySearch(ts, r.Start)
	hi, _ := slices.BinarySearch(ts, r.End)
	s := summary{scanned: true, first: -1}
	if lo >= hi {
		return s
	}
	ver := cs.meta.Version
	checkDeletes := op.deleteIx.CoversAny(ts[lo], ts[hi-1], ver)
	sweep := op.deleteIx.Sweep(ts[lo], ver)
	x := 0
	for i := lo; i < hi; i++ {
		t := ts[i]
		if checkDeletes && sweep.Covered(t) {
			continue
		}
		for x < len(excluded) && excluded[x] < t {
			x++
		}
		if x < len(excluded) && excluded[x] == t {
			continue
		}
		switch {
		case s.first < 0:
			s.first, s.bottom, s.top = i, i, i
		case vs[i] < vs[s.bottom]:
			s.bottom = i
		case vs[i] > vs[s.top]:
			s.top = i
		}
		s.last = i
	}
	return s
}

// timeSlot selects the FP or LP slot.
func (v *view) timeSlot(isFirst bool) *gSlot {
	if isFirst {
		return &v.first
	}
	return &v.last
}

// valueSlot selects the BP or TP slot.
func (v *view) valueSlot(isBottom bool) *gSlot {
	if isBottom {
		return &v.bottom
	}
	return &v.top
}

// computeTimeExtreme runs the FP (isFirst) or LP candidate loop of §3.3.
func (sc *spanComputer) computeTimeExtreme(isFirst bool) (series.Point, bool, error) {
	// better reports whether time a beats time b for this function.
	better := func(a, b int64) bool {
		if isFirst {
			return a < b
		}
		return a > b
	}
	for {
		sc.local.CandidateRounds++
		// Candidate generation (§3.2): the extreme time over all views,
		// bounds included; among equal times the largest version.
		var best *view
		for i := range sc.views {
			v := &sc.views[i]
			if v.dead {
				continue
			}
			slot := v.timeSlot(isFirst)
			if best == nil {
				best = v
				continue
			}
			bt := best.timeSlot(isFirst).pt.T
			switch {
			case better(slot.pt.T, bt):
				best = v
			case slot.pt.T == bt && preferred(slot.st, v.ver, best.timeSlot(isFirst).st, best.ver):
				best = v
			}
		}
		if best == nil {
			return series.Point{}, false, nil
		}
		slot := best.timeSlot(isFirst)
		switch slot.st {
		case stBoundTime:
			// The bound is competitive; tighten it to an actual
			// surviving timestamp with a partial load and an index
			// probe (Table 1 case b).
			if err := sc.resolveTimeBound(best, isFirst); err != nil {
				if err := sc.chunkFailed(best, err); err != nil {
					return series.Point{}, false, err
				}
			}
		case stVerifiedTime:
			// The winning timestamp needs its value: load the chunk.
			if err := sc.materialize(best); err != nil {
				if err := sc.chunkFailed(best, err); err != nil {
					return series.Point{}, false, err
				}
			}
		case stPoint:
			// Candidate verification (Proposition 3.1): only later
			// deletes can refute an FP/LP candidate.
			if d, ok := sc.deletedLater(slot.pt.T, best.ver); ok {
				// Lazy load (§3.3): move the time bound to the delete
				// boundary without touching chunk data.
				sc.refuteTimeByDelete(best, isFirst, d)
				continue
			}
			return slot.pt, true, nil
		case stVerifiedPoint:
			// Recomputed under deletes already; nothing can refute it
			// (Proposition 3.1 again: overwrites cannot apply to the
			// minimal/maximal surviving time with the largest version).
			return slot.pt, true, nil
		}
	}
}

// preferred orders tied candidates: resolvable bounds first (they may hide
// an earlier/later or same-time higher-version point), then timestamps
// needing value loads, then actual points by descending version.
func preferred(aSt gState, aVer storage.Version, bSt gState, bVer storage.Version) bool {
	rank := func(st gState) int {
		switch st {
		case stBoundTime, stBoundValue:
			return 2
		case stVerifiedTime:
			return 1
		default:
			return 0
		}
	}
	if ra, rb := rank(aSt), rank(bSt); ra != rb {
		return ra > rb
	}
	return aVer > bVer
}

// preferredValue orders tied BP/TP candidates the other way around: a
// verified point at the extreme value is already an acceptable answer
// (Definition 2.1 allows any extremal point), so actual points beat bounds
// and avoid loading the bound's chunk; among points the larger version is
// more likely the latest.
func preferredValue(aSt gState, aVer storage.Version, bSt gState, bVer storage.Version) bool {
	aBound := aSt == stBoundValue
	bBound := bSt == stBoundValue
	if aBound != bBound {
		return bBound
	}
	return aVer > bVer
}

// refuteTimeByDelete applies the §3.3 lazy-load rule: the candidate is
// covered by delete d, so the view's restricted FP.t (or LP.t) moves to
// the delete boundary. If the bound leaves the span or the chunk interval,
// every span point of the chunk is deleted and the view dies.
func (sc *spanComputer) refuteTimeByDelete(v *view, isFirst bool, d storage.Delete) {
	if isFirst {
		bound := d.End + 1
		if bound > sc.span.End-1 || bound > v.cs.meta.Last.T {
			v.dead = true
			return
		}
		v.first = gSlot{st: stBoundTime, pt: series.Point{T: bound}}
		return
	}
	bound := d.Start - 1
	if bound < sc.span.Start || bound < v.cs.meta.First.T {
		v.dead = true
		return
	}
	v.last = gSlot{st: stBoundTime, pt: series.Point{T: bound}}
}

// resolveTimeBound turns a stBoundTime slot into a stVerifiedTime slot (or
// kills the view): partial-load the timestamps, find the closest point
// after/before the bound with the chunk index, and chain over deletes.
func (sc *spanComputer) resolveTimeBound(v *view, isFirst bool) error {
	if err := sc.op.ensureTimes(v.cs); err != nil {
		return err
	}
	slot := v.timeSlot(isFirst)
	bound := slot.pt.T
	for {
		var t int64
		sc.local.IndexProbes++
		sc.local.BoundaryProbes++
		if isFirst {
			pos, ok := v.cs.probe.FirstAfter(bound - 1) // closest t >= bound
			if !ok {
				v.dead = true
				return nil
			}
			t = v.cs.times[pos]
			if t > sc.span.End-1 {
				v.dead = true
				return nil
			}
		} else {
			pos, ok := v.cs.probe.LastBefore(bound + 1) // closest t <= bound
			if !ok {
				v.dead = true
				return nil
			}
			t = v.cs.times[pos]
			if t < sc.span.Start {
				v.dead = true
				return nil
			}
		}
		d, refuted := sc.deletedLater(t, v.ver)
		if !refuted {
			*slot = gSlot{st: stVerifiedTime, pt: series.Point{T: t}}
			return nil
		}
		if isFirst {
			bound = d.End + 1
			if bound > sc.span.End-1 || bound > v.cs.meta.Last.T {
				v.dead = true
				return nil
			}
		} else {
			bound = d.Start - 1
			if bound < sc.span.Start || bound < v.cs.meta.First.T {
				v.dead = true
				return nil
			}
		}
	}
}

// computeValueExtreme runs the BP (isBottom) or TP candidate loop of §3.4.
func (sc *spanComputer) computeValueExtreme(isBottom bool) (series.Point, bool, error) {
	better := func(a, b float64) bool {
		if isBottom {
			return a < b
		}
		return a > b
	}
	for {
		sc.local.CandidateRounds++
		// Candidate generation: extreme value over all views, bounds
		// included (a bound under-estimates BP / over-estimates TP, so
		// it can hide the true extremum and must win ties for
		// resolution); among equals the largest version.
		var best *view
		for i := range sc.views {
			v := &sc.views[i]
			if v.dead {
				continue
			}
			slot := v.valueSlot(isBottom)
			if best == nil {
				best = v
				continue
			}
			bv := best.valueSlot(isBottom).pt.V
			switch {
			case better(slot.pt.V, bv):
				best = v
			case slot.pt.V == bv && preferredValue(slot.st, v.ver, best.valueSlot(isBottom).st, best.ver):
				best = v
			}
		}
		if best == nil {
			return series.Point{}, false, nil
		}
		slot := best.valueSlot(isBottom)
		switch slot.st {
		case stBoundValue:
			// The chunk-wide extremum lies outside the span but bounds
			// the in-span extremum; the chunk is split by the span and
			// must be loaded (§4.1's "chunks split by M4 time spans").
			if err := sc.materialize(best); err != nil {
				if err := sc.chunkFailed(best, err); err != nil {
					return series.Point{}, false, err
				}
			}
		case stPoint, stVerifiedPoint:
			p := slot.pt
			// Candidate verification (Proposition 3.3): later deletes
			// (skipped for recomputed slots, which already applied
			// them) and overwrites by later chunks.
			if slot.st == stPoint {
				if _, ok := sc.deletedLater(p.T, best.ver); ok {
					// The metadata extremum is deleted; recalculate
					// under deletes (Table 1 case c).
					if err := sc.materialize(best); err != nil {
						if err := sc.chunkFailed(best, err); err != nil {
							return series.Point{}, false, err
						}
					}
					continue
				}
			}
			over, err := sc.overwrittenLater(p.T, best.ver)
			if err != nil {
				return series.Point{}, false, err
			}
			if over {
				// Lazy load (§3.4): exclude the overwritten point and
				// recalculate; remaining metadata candidates of other
				// chunks stay in play automatically via the loop.
				i, _ := slices.BinarySearch(best.excluded, p.T)
				best.excluded = slices.Insert(best.excluded, i, p.T)
				if err := sc.materialize(best); err != nil {
					if err := sc.chunkFailed(best, err); err != nil {
						return series.Point{}, false, err
					}
				}
				continue
			}
			return p, true, nil
		default:
			return series.Point{}, false, fmt.Errorf("internal: value slot in state %d", slot.st)
		}
	}
}
