package m4lsm

import (
	"errors"
	"slices"

	"m4lsm/internal/govern"
	"m4lsm/internal/series"
	"m4lsm/internal/stepreg"
	"m4lsm/internal/storage"
)

// chunkState caches one chunk's loads across the spans and functions of
// one query: the first task that needs the timestamps or the data performs
// the LoadTimes/Load/LoadValues I/O, and every later one finds the columns
// already present — at most one load of each block per chunk per query.
// The loaded columns are written once and never mutated.
type chunkState struct {
	ref  storage.ChunkRef
	meta storage.ChunkMeta

	times    []int64       // the timestamp column: of the full load itself, or of an earlier partial load
	values   []float64     // the value column, nil until a full load
	probe    stepreg.Probe // bound with the timestamps: nil until they are loaded
	hasData  bool
	loadErr  error // sticky: a failed load is not retried within the query
	reported bool  // the failure has been reported to the snapshot
}

// assignment is one chunk assigned to one chunk list: a span's, or one of
// a pyramid span's boundary fragments. Every task over the list works on
// the same assignment, and so shares the chunk's summary over exactly that
// list's range.
type assignment struct {
	cs  *chunkState
	sum summary
}

// summary is a chunk's FP/LP/BP/TP over its assignment's range after the
// query's deletes, as positions into its columns (first < 0: none
// survives). It is a function of the chunk, range and deletes alone, so
// whichever task computes it, every result stays byte-identical.
type summary struct {
	scanned                  bool
	first, last, bottom, top int
}

// ensureTimes loads the chunk's timestamps and binds its probe.
func (op *operator) ensureTimes(cs *chunkState) error {
	if cs.loadErr != nil {
		return cs.loadErr
	}
	if cs.probe != nil {
		return nil
	}
	if op.opts.DisablePartialLoad {
		return op.ensureData(cs)
	}
	// Cancellation and budget are checked before I/O only and never made
	// sticky: a cancelled or budget-refused load must not poison the chunk
	// state or mask the real error classification.
	if err := op.ctxErr(); err != nil {
		return err
	}
	if err := op.budget.ChargeChunk(0); err != nil {
		return err
	}
	ts, err := cs.ref.LoadTimes(op.stats)
	if err != nil {
		cs.loadErr = err
		return err
	}
	cs.setTimes(ts, op.opts)
	return nil
}

// ensureData loads the chunk's data: its value block, and its timestamps
// unless a probe already loaded them.
func (op *operator) ensureData(cs *chunkState) error {
	if cs.loadErr != nil {
		return cs.loadErr
	}
	if cs.hasData {
		return nil
	}
	if err := op.ctxErr(); err != nil {
		return err
	}
	if err := op.budget.ChargeChunk(int64(cs.meta.Count)); err != nil {
		return err
	}
	// With the timestamps already here, the rest of the load is the value
	// block alone: no chunk's timestamp block is decoded twice.
	var err error
	if cs.probe != nil {
		cs.values, err = cs.ref.LoadValues(op.stats)
	} else {
		var cols series.Columns
		if cols, err = cs.ref.Load(op.stats); err == nil {
			cs.setTimes(cols.Times(), op.opts)
			cs.values = cols.Values()
		}
	}
	if err != nil {
		cs.loadErr = err
		return err
	}
	cs.hasData = true
	return nil
}

// setTimes keeps the chunk's timestamp column and binds its probe to it:
// the step model the chunk writer fitted, or binary search for a chunk
// without one (a memtable's) and under DisableStepIndex. No query fits a
// model.
func (cs *chunkState) setTimes(ts []int64, opts Options) {
	cs.times = ts
	if opts.DisableStepIndex || cs.meta.Step == nil {
		cs.probe = stepreg.NewPlain(ts)
	} else {
		cs.probe = stepreg.Bind(cs.meta.Step, ts)
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

// chunkFailed routes the error of a load on v's chunk; a nil error passes.
// Under Strict — or when the query's context is done, whatever the error
// says — it propagates. Otherwise the result is flagged degraded, the chunk
// is reported once per query and this task's view of it dies, so the
// candidate loop continues over the remaining chunks (graceful
// degradation). A chunk the budget refused is only a warning: nothing is
// wrong with its bytes, so the snapshot producer must not quarantine it.
func (sc *spanComputer) chunkFailed(v *view, err error) error {
	if err == nil {
		return nil
	}
	op := sc.op
	if cerr := op.ctxErr(); cerr != nil {
		return cerr
	}
	if op.opts.Strict {
		return err
	}
	v.dead = true
	op.degraded = true
	cs := v.cs
	already := cs.reported
	cs.reported = true
	switch {
	case already:
	case errors.Is(err, govern.ErrBudgetExceeded):
		op.snap.Warnings.Add("chunk %s v%d skipped by budget: %v", cs.meta.SeriesID, cs.meta.Version, err)
	default:
		op.snap.ReportBadChunk(cs.meta, err)
	}
	return nil
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

// summarize loads the chunk and returns its summary over r. Without
// exclusions that is the assignment's shared summary, scanned once per
// (chunk, range) per query by whichever task gets there first; a view's
// overwrite exclusions are its own task's business, so with any the range
// is scanned afresh and nothing is shared.
func (op *operator) summarize(a *assignment, r series.TimeRange, excluded []int64) (summary, error) {
	cs := a.cs
	if err := op.ensureData(cs); err != nil {
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
// all; when neither a delete nor an exclusion falls in the range, the pass
// is a bare min/max over the values. Otherwise each point is checked, the
// deletes by a sweep beside the column. Ties resolve as in
// storage.ComputeMeta: the first strictly smaller (larger) value wins.
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
	if x, _ := slices.BinarySearch(excluded, ts[lo]); !checkDeletes && (x == len(excluded) || excluded[x] > ts[hi-1]) {
		s = summary{scanned: true, first: lo, last: hi - 1, bottom: lo, top: lo}
		bv, tv := vs[lo], vs[lo]
		for i := lo + 1; i < hi; i++ {
			switch v := vs[i]; {
			case v < bv:
				bv, s.bottom = v, i
			case v > tv:
				tv, s.top = v, i
			}
		}
		return s
	}
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
