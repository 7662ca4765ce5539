// Package pyramid is the M4 rollup pyramid: per-series FP/LP/BP/TP
// aggregates precomputed at power-of-two cell widths, so a width-w query
// resolves from ~O(w) cells plus exact computation on the two boundary
// fragments of each span, however many raw points the range holds. It is
// an index derived from a storage engine's chunks and deletes, and knows
// nothing about them: its owner marks ranges stale as data changes, hands
// Rebuild a reader of merged, delete-applied points, and stores the
// manifest Encode produces.
//
// Layout. At level L, cell i is the m4.Aggregate of the merged series over
// [i<<L, (i+1)<<L). A level keeps its non-empty cells in one slice sorted
// by index; empty cells are absent from it. Planning walks a level with a
// forward cursor in time order, and a rebuild splices each re-derived index
// range in place. Alignment is absolute, not relative to the series, so
// cells stay valid when the extent grows. Each series keeps a contiguous
// run of levels: the base (finest) level is the finest whose cells cover
// the extent in at most maxBaseCells, and every coarser level is derived
// from its children without touching data.
//
// Manifest. Only what cannot be derived is stored: per series the extent,
// stale set, base log and level count, every level's cover, and the base
// cells alone, as columns through the chunk codecs (see manifest.go).
// Decode derives each coarser level from its children inside its stored
// cover, with the fold Rebuild uses.
//
// Invalidation. Cells are never edited on the write path. Each series keeps
// a set of stale time ranges with one invariant: data not yet reflected in
// the cells is covered by a stale range. The owner marks ranges stale
// before, or atomically with, making a change visible; only Rebuild clears
// them, and only the ranges it re-read. A View uses a cell iff it is
// covered and overlaps no stale range.
//
// Crash safety. The manifest carries the owner's version watermark at the
// encode, which the owner allocates no version during; on reopen the owner
// re-marks stale whatever the watermark does not vouch for, so a crash
// between "data durable" and "manifest saved" costs rebuild work, never
// correctness.
//
// Locking. One RWMutex guards every series. It is a leaf: under it the
// package calls only lock-free pure functions (m4, encoding, sort), never
// caller-supplied code (Rebuild's read runs unlocked) and never I/O, so
// callers may hold their own locks around any method. Encode takes the
// encoder's own lock first, which nothing else takes.
package pyramid

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"m4lsm/internal/m4"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
)

const (
	// maxBaseCells bounds how many base-level cells one series' extent may
	// need; the base level is coarsened (and finer levels dropped) when the
	// extent outgrows it.
	maxBaseCells = 1 << 14
	// maxLevels bounds the levels kept per series.
	maxLevels = 18
	// maxPlanCells bounds the per-span decomposition; a span needing more
	// cells (badly fragmented coverage) falls back to chunk reads.
	maxPlanCells = 64
)

// level is one resolution of one series: cells of width 1<<log at
// absolute alignment (cell i covers [i<<log, (i+1)<<log)).
type level struct {
	log uint
	// cells holds the non-empty cells, in strictly increasing index order,
	// all inside cover.
	cells []cellAt
	// cover holds the cell-index ranges whose contents are known (cells
	// absent from cells inside cover are known-empty).
	cover rset
	// gen counts mutations; views capture it and refuse cells from a level
	// rebuilt after the view was taken.
	gen uint64
}

// cellAt is one non-empty cell of a level and its index.
type cellAt struct {
	idx int64
	agg m4.Aggregate
}

// seek returns the position of the first cell at or after position from
// whose index is at least idx. A cursor that moves a cell or two at a time,
// as planning's and derivation's do, costs one or two comparisons; a longer
// move is a binary search.
func seek(cells []cellAt, from int, idx int64) int {
	for end := min(from+2, len(cells)); from < end; from++ {
		if cells[from].idx >= idx {
			return from
		}
	}
	lo, hi := from, len(cells)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if cells[m].idx < idx {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// cell returns cell idx and whether it is non-empty.
func (lv *level) cell(idx int64) (m4.Aggregate, bool) {
	if k := seek(lv.cells, 0, idx); k < len(lv.cells) && lv.cells[k].idx == idx {
		return lv.cells[k].agg, true
	}
	return m4.Aggregate{Empty: true}, false
}

// childrenOf folds the two children of parent cell idx; Empty when both
// are.
func (lv *level) childrenOf(idx int64) m4.Aggregate {
	agg, _ := lv.cell(idx << 1)
	b, _ := lv.cell(idx<<1 | 1)
	agg.Merge(b)
	return agg
}

// seriesPyramid is the cells and bookkeeping of one series.
type seriesPyramid struct {
	// stale is the set of time ranges whose cells may not reflect the
	// current merged data. See the package comment for the invariant.
	stale rset
	// levels is a contiguous run sorted by ascending log; empty until the
	// first rebuild.
	levels []*level
	// minT/maxT track the data extent the last rebuild was given.
	minT, maxT int64
	hasExtent  bool
}

func (sp *seriesPyramid) level(log uint) *level {
	for _, lv := range sp.levels {
		if lv.log == log {
			return lv
		}
	}
	return nil
}

// Pyramid is the rollup store of every series, keyed by series id. The
// methods an engine calls on every write or query (MarkStale, Stale, View,
// Stats, Dirty, CheckInvariants) are no-ops on a nil *Pyramid, which is
// how a disabled pyramid is represented.
type Pyramid struct {
	mu     sync.RWMutex
	series map[string]*seriesPyramid
	// dirty records cell changes since the last Encode. Stale-set changes
	// alone don't set it: the manifest watermark re-derives any post-save
	// staleness on reopen. Every setter holds mu for writing, so Encode may
	// clear it under the read lock without losing a set.
	dirty atomic.Bool

	// enc serializes encodes (before mu) and keeps what one leaves the
	// next: the column buffers and the size of the last manifest encoded or
	// decoded. points is the distinct base points that manifest holds.
	enc struct {
		sync.Mutex
		times []int64
		vals  []float64
		size  int
	}
	points atomic.Int64

	invalidations atomic.Int64 // MarkStale calls
	rebuilds      atomic.Int64 // per-series rebuilds completed
	rebuildErrors atomic.Int64 // rebuild reads that failed (left stale)
}

// New returns an empty pyramid.
func New() *Pyramid {
	return &Pyramid{series: make(map[string]*seriesPyramid)}
}

// MarkStale records that the merged contents of the closed range [start,
// end] of series id may have changed. Safe to over-mark: staleness only
// forces fallback and rebuild work, never wrong answers.
func (p *Pyramid) MarkStale(id string, start, end int64) {
	hi := end
	if end != math.MaxInt64 {
		hi++ // half-open, clamping the +1 at the int64 edge
	}
	if p == nil || hi <= start {
		return
	}
	p.mu.Lock()
	sp := p.series[id]
	if sp == nil {
		sp = &seriesPyramid{}
		p.series[id] = sp
	}
	sp.stale.add(start, hi)
	p.mu.Unlock()
	p.invalidations.Add(1)
}

// Stale returns, sorted, the series with stale ranges.
func (p *Pyramid) Stale() []string {
	if p == nil {
		return nil
	}
	p.mu.RLock()
	var ids []string
	for id, sp := range p.series {
		if len(sp.stale) > 0 {
			ids = append(ids, id)
		}
	}
	p.mu.RUnlock()
	sort.Strings(ids)
	return ids
}

// Stats summarizes the pyramid for the owner's Info and metrics.
type Stats struct {
	Series, Cells, StaleRanges int
	// Lifetime counts: MarkStale calls, completed per-series rebuilds, and
	// rebuild reads that failed (their ranges left stale).
	Invalidations, Rebuilds, RebuildErrors int64
}

// Stats returns the current summary; zero on a nil pyramid.
func (p *Pyramid) Stats() Stats {
	if p == nil {
		return Stats{}
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	st := Stats{Series: len(p.series), Invalidations: p.invalidations.Load(),
		Rebuilds: p.rebuilds.Load(), RebuildErrors: p.rebuildErrors.Load()}
	for _, sp := range p.series {
		st.StaleRanges += len(sp.stale)
		for _, lv := range sp.levels {
			st.Cells += len(lv.cells)
		}
	}
	return st
}

// Dirty reports whether cells changed since the last Encode.
func (p *Pyramid) Dirty() bool {
	return p != nil && p.dirty.Load()
}

// Points returns how many distinct base-level points the last Encode
// wrote, or Decode read: the owner paces saves by it.
func (p *Pyramid) Points() int64 { return p.points.Load() }

// MarkDirty makes the next Dirty report true: the last Encode's bytes were
// never stored, or the stored copy is bad.
func (p *Pyramid) MarkDirty() {
	p.mu.Lock()
	p.dirty.Store(true)
	p.mu.Unlock()
}

// CheckInvariants verifies, for one series, that every covered parent cell
// has both children covered and equals the merge of its children's cells.
// It returns the first violation found; the differential harness calls it
// after every generated workload to pinpoint a wrong cell by level and
// index instead of by a span-level mismatch.
func (p *Pyramid) CheckInvariants(id string) error {
	if p == nil {
		return nil
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	sp := p.series[id]
	if sp == nil {
		return nil
	}
	for _, lv := range sp.levels {
		for k, c := range lv.cells {
			if (k > 0 && c.idx <= lv.cells[k-1].idx) || c.agg.Empty || !lv.cover.contains(c.idx, c.idx+1) {
				return fmt.Errorf("%s L%d cell %d at position %d: out of order, empty or not covered (cover %v)",
					id, lv.log, c.idx, k, lv.cover)
			}
		}
	}
	for li := 1; li < len(sp.levels); li++ {
		child, parent := sp.levels[li-1], sp.levels[li]
		for _, r := range parent.cover {
			for idx := r.lo; idx < r.hi; idx++ {
				if !child.cover.contains(idx<<1, (idx+1)<<1) {
					return fmt.Errorf("%s L%d cell %d [%d,%d) covered but child L%d not fully covered (child cover %v)",
						id, parent.log, idx, idx<<parent.log, (idx+1)<<parent.log, child.log, child.cover)
				}
				want := child.childrenOf(idx)
				have, ok := parent.cell(idx)
				if ok == want.Empty || (ok && have != want) {
					return fmt.Errorf("%s L%d cell %d [%d,%d): have ok=%v %v, want %v",
						id, parent.log, idx, idx<<parent.log, (idx+1)<<parent.log, ok, have, want)
				}
			}
		}
	}
	return nil
}

// view is the storage.PyramidSource attached to a snapshot: per level, the
// generation and the usable cell-index ranges (covered, not stale, clipped
// to the query range), captured under the pyramid lock when the snapshot
// was taken.
type view struct {
	p      *Pyramid
	id     string
	levels []viewLevel
}

type viewLevel struct {
	log    uint
	gen    uint64
	usable rset
}

// View captures the usable cells of series id over the half-open range r,
// or returns nil when the series has no cells.
func (p *Pyramid) View(id string, r series.TimeRange) storage.PyramidSource {
	if p == nil || r.End <= r.Start {
		return nil
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	sp := p.series[id]
	if sp == nil || len(sp.levels) == 0 {
		return nil
	}
	v := &view{p: p, id: id, levels: make([]viewLevel, 0, len(sp.levels))}
	// staleIdx is sp.stale in one level's cell indexes, rebuilt per level
	// in one buffer: shifting keeps the sorted, coalesced ranges in order,
	// so push builds it in one pass.
	staleIdx := make(rset, 0, len(sp.stale))
	for _, lv := range sp.levels {
		qLo := r.Start >> lv.log
		qHi := ((r.End - 1) >> lv.log) + 1
		usable := lv.cover.intersect(qLo, qHi)
		if len(usable) > 0 && len(sp.stale) > 0 {
			staleIdx = staleIdx[:0]
			for _, s := range sp.stale {
				staleIdx = staleIdx.push(s.lo>>lv.log, ((s.hi-1)>>lv.log)+1)
			}
			usable = usable.subtract(staleIdx)
		}
		v.levels = append(v.levels, viewLevel{log: lv.log, gen: lv.gen, usable: usable})
	}
	return v
}

// PlanSpans implements storage.PyramidSource in one pass under one pyramid
// read lock: each view level is checked against its live generation once,
// so a rebuild racing an old snapshot forces fallback instead of serving
// cells newer than the snapshot's chunk list. Each span's cell-aligned
// interior is then tiled greedily, coarsest usable level first, and its
// cells folded straight into the span's aggregate.
func (v *view) PlanSpans(q m4.Query, spans []storage.PyramidSpan, aggs []m4.Aggregate) int {
	if len(v.levels) == 0 {
		return 0
	}
	p := v.p
	p.mu.RLock()
	defer p.mu.RUnlock()
	sp := p.series[v.id]
	if sp == nil {
		return 0
	}
	// live[li] is view level li's cells, nil when rebuilt since the
	// snapshot, and at[li] its cursor: spans come in time order, so every
	// level is read front to back.
	var live [maxLevels]*level
	var at [maxLevels]int
	for li, vl := range v.levels {
		if lv := sp.level(vl.log); lv != nil && lv.gen == vl.gen {
			live[li] = lv
		}
	}
	base := v.levels[0].log
	planned := 0
	end := q.SpanStart(0)
	for i := range spans {
		start := end
		end = q.SpanStart(i + 1)
		slot := storage.PyramidSpan{Lo: cellCeil(start, base), Hi: cellFloor(end, base)}
		// No cell wider than the span's interior can tile it. Level li's
		// cells are at least 1<<(base+li) wide, so the descent starts at
		// most that many levels up.
		width := uint64(slot.Hi - slot.Lo)
		top := min(len(v.levels), bits.Len64(width)-int(base)) - 1
		for top > 0 && uint64(1)<<v.levels[top].log > width {
			top--
		}
		agg := m4.Aggregate{Empty: true}
		pos := slot.Lo
		for pos < slot.Hi && slot.Cells < maxPlanCells {
			li := top
			var idx int64
			for ; li >= 0; li-- {
				vl := &v.levels[li]
				idx = pos >> vl.log
				if idx<<vl.log == pos && pos+int64(1)<<vl.log <= slot.Hi && vl.usable.contains(idx, idx+1) {
					break
				}
			}
			if li < 0 || live[li] == nil {
				break
			}
			cells := live[li].cells
			if at[li] = seek(cells, at[li], idx); at[li] < len(cells) && cells[at[li]].idx == idx {
				agg.Merge(cells[at[li]].agg)
			}
			slot.Cells++
			pos += int64(1) << v.levels[li].log
		}
		if slot.Lo < slot.Hi && pos == slot.Hi {
			spans[i], aggs[i] = slot, agg
			planned++
		}
	}
	return planned
}

// cellFloor / cellCeil align t down/up to a multiple of 1<<log. Right
// shifts on negative values floor-divide, so absolute alignment works for
// any int64 timestamp.
func cellFloor(t int64, log uint) int64 { return (t >> log) << log }

func cellCeil(t int64, log uint) int64 {
	return ((t + int64(1)<<log - 1) >> log) << log
}

// levelBounds picks the level range for a data extent: the finest level
// whose cell count over the extent fits maxBaseCells, up to the coarsest
// level whose cells are no wider than the extent.
func levelBounds(minT, maxT int64) (lmin, lmax uint) {
	width := uint64(maxT) - uint64(minT) + 1
	for lmin < 62 && width>>lmin > maxBaseCells {
		lmin++
	}
	lmax = lmin
	for lmax < 62 && lmax-lmin+1 < maxLevels && uint64(1)<<(lmax+1) <= width {
		lmax++
	}
	return lmin, lmax
}

// rng is a half-open interval [lo, hi) with lo < hi.
type rng struct{ lo, hi int64 }

// rset is a sorted, disjoint, coalesced set of half-open int64 intervals.
// It serves both as a set of time ranges (staleness) and as a set of cell
// indexes (level coverage).
type rset []rng

// add unions [lo, hi) into the set, coalescing adjacent and overlapping
// ranges.
func (s *rset) add(lo, hi int64) {
	if hi <= lo {
		return
	}
	t := *s
	i := sort.Search(len(t), func(i int) bool { return t[i].hi >= lo })
	j := i
	for j < len(t) && t[j].lo <= hi {
		if t[j].lo < lo {
			lo = t[j].lo
		}
		if t[j].hi > hi {
			hi = t[j].hi
		}
		j++
	}
	out := append(t[:i:i], rng{lo, hi})
	*s = append(out, t[j:]...)
}

// push is add for input in ascending order: [lo, hi) may start no earlier
// than the set's last range, so it coalesces with that range or is
// appended, in O(1). It returns the grown set.
func (s rset) push(lo, hi int64) rset {
	if hi <= lo {
		return s
	}
	if n := len(s); n > 0 && lo <= s[n-1].hi {
		s[n-1].hi = max(s[n-1].hi, hi)
		return s
	}
	return append(s, rng{lo, hi})
}

// union returns s ∪ o as a fresh set, merged in one pass.
func (s rset) union(o rset) rset {
	if len(s)+len(o) == 0 {
		return nil
	}
	out := make(rset, 0, len(s)+len(o))
	for len(s) > 0 || len(o) > 0 {
		var r rng
		if len(o) == 0 || (len(s) > 0 && s[0].lo <= o[0].lo) {
			r, s = s[0], s[1:]
		} else {
			r, o = o[0], o[1:]
		}
		out = out.push(r.lo, r.hi)
	}
	return out
}

// contains reports whether [lo, hi) is entirely covered. The set is
// coalesced, so containment means one range covers it.
func (s rset) contains(lo, hi int64) bool {
	if hi <= lo {
		return true
	}
	i := sort.Search(len(s), func(i int) bool { return s[i].hi >= hi })
	return i < len(s) && s[i].lo <= lo
}

// subtract returns s minus o as a fresh set, allocated once: every range
// of o splits at most one range of s in two.
func (s rset) subtract(o rset) rset {
	var out rset
	if len(s) > 0 && len(o) > 0 {
		out = make(rset, 0, len(s)+len(o))
	}
	j := 0
	for _, r := range s {
		lo := r.lo
		for lo < r.hi {
			for j < len(o) && o[j].hi <= lo {
				j++
			}
			if j == len(o) || o[j].lo >= r.hi {
				out = append(out, rng{lo, r.hi})
				break
			}
			if o[j].lo > lo {
				out = append(out, rng{lo, o[j].lo})
			}
			lo = o[j].hi
		}
	}
	return out
}

// intersect clips the set to [lo, hi).
func (s rset) intersect(lo, hi int64) rset {
	var out rset
	for _, r := range s {
		l, h := r.lo, r.hi
		if l < lo {
			l = lo
		}
		if h > hi {
			h = hi
		}
		if l < h {
			out = append(out, rng{l, h})
		}
	}
	return out
}

// size returns the total length covered.
func (s rset) size() int64 {
	var n int64
	for _, r := range s {
		n += r.hi - r.lo
	}
	return n
}
