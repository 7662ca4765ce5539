package m4lsm

import (
	"fmt"
	"slices"

	"m4lsm/internal/obs"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
)

// gKind names the four representation functions as task coordinates.
type gKind uint8

const (
	gFP gKind = iota // FirstPoint
	gLP              // LastPoint
	gBP              // BottomPoint
	gTP              // TopPoint
)

// gCount is the number of representation functions (tasks per list).
const gCount = int(gTP) + 1

func (g gKind) String() string { return [gCount]string{"FP", "LP", "BP", "TP"}[g] }

// gResult is one task's output: the representation point of one function
// over one chunk list's range, ok=false when the range has no surviving
// points.
type gResult struct {
	pt series.Point
	ok bool
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

// spanComputer runs one candidate loop for one chunk list's range. It is
// the query's scratch, reset by every task: its views (and their slots and
// exclusion sets) hold one task's state. Operator counters and task
// timings accumulate in it across the tasks of one series and are flushed
// when the tasks move to another series and when the wave ends: once per
// series per wave, not once per task.
type spanComputer struct {
	op    *operator
	span  series.TimeRange
	views []view
	local storage.Stats // op's counters since the last flush
	tasks obs.Tally     // task durations since the last flush
}

// reset points the scratch at a new task, reusing its view arena.
func (sc *spanComputer) reset(op *operator, span series.TimeRange, chunks []assignment) {
	if sc.op != op {
		sc.flush()
		sc.op = op
	}
	sc.span = span
	if cap(sc.views) < len(chunks) {
		sc.views = make([]view, len(chunks))
	}
	sc.views = sc.views[:len(chunks)]
	for i := range chunks {
		sc.views[i].reset(&chunks[i], span)
	}
}

// flush adds the scratch's counters to its series' stats and its task
// timings to the query's task histogram.
func (sc *spanComputer) flush() {
	if sc.op == nil {
		return
	}
	sc.op.stats.Add(sc.local)
	sc.local = storage.Stats{}
	sc.op.clock.FlushTasks(&sc.tasks)
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
		// An unreadable probed chunk (not the candidate's) is dropped from
		// the query and treated as not overwriting.
		ok, err := sc.exists(w.cs, t)
		if err := sc.chunkFailed(w, err); err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
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
			if err := sc.chunkFailed(best, sc.resolveTimeBound(best, isFirst)); err != nil {
				return series.Point{}, false, err
			}
		case stVerifiedTime:
			// The winning timestamp needs its value: load the chunk.
			if err := sc.chunkFailed(best, sc.materialize(best)); err != nil {
				return series.Point{}, false, err
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
	for !v.dead {
		sc.local.IndexProbes++
		sc.local.BoundaryProbes++
		var pos int
		var ok bool
		if isFirst {
			pos, ok = v.cs.probe.FirstAfter(slot.pt.T - 1) // closest t >= bound
		} else {
			pos, ok = v.cs.probe.LastBefore(slot.pt.T + 1) // closest t <= bound
		}
		if !ok || !sc.span.Contains(v.cs.times[pos]) {
			v.dead = true
			return nil
		}
		t := v.cs.times[pos]
		d, refuted := sc.deletedLater(t, v.ver)
		if !refuted {
			*slot = gSlot{st: stVerifiedTime, pt: series.Point{T: t}}
			return nil
		}
		sc.refuteTimeByDelete(v, isFirst, d)
	}
	return nil
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
			if err := sc.chunkFailed(best, sc.materialize(best)); err != nil {
				return series.Point{}, false, err
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
					if err := sc.chunkFailed(best, sc.materialize(best)); err != nil {
						return series.Point{}, false, err
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
				if err := sc.chunkFailed(best, sc.materialize(best)); err != nil {
					return series.Point{}, false, err
				}
				continue
			}
			return p, true, nil
		default:
			return series.Point{}, false, fmt.Errorf("internal: value slot in state %d", slot.st)
		}
	}
}
