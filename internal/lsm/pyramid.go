// M4 rollup pyramid: per-series FP/LP/BP/TP aggregates precomputed at
// power-of-two cell widths, so a width-w query resolves from ~O(w) cells
// plus exact computation on the two boundary fragments of each span,
// independent of how many raw points the range holds.
//
// Layout. Cells live at absolute power-of-two alignment: at level L a cell
// with index i covers the half-open interval [i<<L, (i+1)<<L). Alignment is
// global (not relative to the series), so cells stay valid when the data
// extent grows and when a directory reopens under a different shard count.
// Each series keeps a contiguous run of levels; the base (finest) level is
// chosen so the series' extent needs at most pyrMaxBaseCells cells, and
// every coarser level is derived from its children without touching data.
//
// Invalidation. The engine never edits cells on the write path. Instead it
// maintains, per series, a set of stale time ranges with one invariant:
// at any instant, data not yet reflected in the cells is covered by a stale
// range. Write, Delete, WAL replay, manifest-watermark validation and chunk
// quarantine all add stale ranges before (or atomically with) making the
// change visible; only a rebuild — at the end of a flush or compaction,
// when the shard's memtable is empty and sh.chunks plus the mods sidecar
// are exactly the merged truth — clears them, and only the ranges it
// actually re-read. A query snapshot considers a cell usable iff it is
// covered and overlaps no stale range.
//
// Crash safety. The whole pyramid persists as one manifest (pyramid.pyr),
// written atomically (tmp + fsync + rename) after rebuilds, carrying a
// version watermark captured from the engine's version counter BEFORE the
// state snapshot. On reopen, any chunk or delete with Version >= watermark
// is conservatively re-marked stale, and WAL replay marks replayed ranges
// stale, so a crash anywhere between "chunks durable" and "manifest saved"
// only costs rebuild work, never correctness. A missing or corrupt manifest
// degrades to marking every flushed chunk stale.
package lsm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"m4lsm/internal/encoding"
	"m4lsm/internal/m4"
	"m4lsm/internal/mergeread"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
)

const (
	pyramidFileName = "pyramid.pyr"
	// pyrMaxBaseCells bounds how many base-level cells one series' extent
	// may need; the base level is coarsened (and finer levels dropped) when
	// the extent outgrows it.
	pyrMaxBaseCells = 1 << 14
	// pyrMaxLevels bounds the levels kept per series.
	pyrMaxLevels = 18
	// pyrMaxPlanCells bounds the per-span decomposition; a span needing
	// more cells (badly fragmented coverage) falls back to chunk reads.
	pyrMaxPlanCells = 64
)

var pyrMagic = []byte{'M', '4', 'P', 'Y', 0x01}

// errPyrCorrupt reports an unreadable pyramid manifest; the manifest is
// discarded and every flushed chunk re-marked stale.
var errPyrCorrupt = errors.New("lsm: corrupt pyramid manifest")

// rng is a half-open interval [lo, hi) with lo < hi.
type rng struct{ lo, hi int64 }

// rset is a sorted, disjoint, coalesced set of half-open int64 intervals.
// It serves both as a set of time ranges (staleness) and as a set of cell
// indexes (level coverage).
type rset []rng

func (s rset) clone() rset {
	if len(s) == 0 {
		return nil
	}
	return append(rset(nil), s...)
}

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

// overlaps reports whether any range intersects [lo, hi).
func (s rset) overlaps(lo, hi int64) bool {
	if hi <= lo {
		return false
	}
	i := sort.Search(len(s), func(i int) bool { return s[i].hi > lo })
	return i < len(s) && s[i].lo < hi
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

// subtract returns s minus o as a fresh set.
func (s rset) subtract(o rset) rset {
	var out rset
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

// pyrCell is one non-empty precomputed cell: the four representation points
// of the merged series restricted to the cell's interval. Empty cells are
// represented by absence from the level's map.
type pyrCell struct {
	first, last, bottom, top series.Point
}

// observe folds one point (arriving in time order) into the cell.
func (c *pyrCell) observe(p series.Point, init bool) {
	if init {
		*c = pyrCell{first: p, last: p, bottom: p, top: p}
		return
	}
	c.last = p
	if p.V < c.bottom.V {
		c.bottom = p
	}
	if p.V > c.top.V {
		c.top = p
	}
}

// combineCells merges two cells of adjacent intervals, a before b in time.
// Value ties keep the earlier point, matching m4.Aggregate.Observe.
func combineCells(a, b pyrCell) pyrCell {
	out := a
	out.last = b.last
	if b.bottom.V < out.bottom.V {
		out.bottom = b.bottom
	}
	if b.top.V > out.top.V {
		out.top = b.top
	}
	return out
}

// pyrLevel is one resolution of one series: cells of width 1<<log at
// absolute alignment (cell i covers [i<<log, (i+1)<<log)).
type pyrLevel struct {
	log   uint
	cells map[int64]pyrCell
	// cover holds the cell-index ranges whose contents are known (cells
	// absent from the map inside cover are known-empty).
	cover rset
	// gen counts mutations; snapshot views capture it and refuse cells
	// from a level rebuilt after the snapshot was taken.
	gen uint64
}

// seriesPyramid is the cells and bookkeeping of one series.
type seriesPyramid struct {
	// stale is the set of time ranges whose cells may not reflect the
	// current merged data. See the package comment for the invariant.
	stale rset
	// levels is a contiguous run sorted by ascending log; empty until the
	// first rebuild.
	levels []*pyrLevel
	// minT/maxT track the observed data extent (from chunk metadata).
	minT, maxT int64
	hasExtent  bool
}

func (sp *seriesPyramid) level(log uint) *pyrLevel {
	for _, lv := range sp.levels {
		if lv.log == log {
			return lv
		}
	}
	return nil
}

// pyramid is the engine-wide rollup store. It is keyed by series id — not
// by shard — so reopening a directory under a different NumShards keeps
// the manifest valid. Its mutex nests inside shard locks (rebuild and
// markStale run under sh.mu) and is never held across I/O.
type pyramid struct {
	mu     sync.RWMutex
	series map[string]*seriesPyramid
	// dirty records cell changes since the last successful save. Stale-set
	// changes alone don't set it: the manifest watermark re-derives any
	// post-save staleness on reopen.
	dirty bool

	// saveMu serializes manifest writes.
	saveMu sync.Mutex

	invalidations atomic.Int64 // markStale calls
	rebuilds      atomic.Int64 // per-series rebuilds completed
	rebuildErrors atomic.Int64 // rebuild reads that failed (left stale)
	saves         atomic.Int64 // manifests written
	saveErrors    atomic.Int64
}

func newPyramid() *pyramid {
	return &pyramid{series: make(map[string]*seriesPyramid)}
}

// cellFloor / cellCeil align t down/up to a multiple of 1<<log. Right
// shifts on negative values floor-divide, so absolute alignment works for
// any int64 timestamp.
func cellFloor(t int64, log uint) int64 { return (t >> log) << log }

func cellCeil(t int64, log uint) int64 {
	return ((t + int64(1)<<log - 1) >> log) << log
}

// pyrLevelBounds picks the level range for a data extent: the finest level
// whose cell count over the extent fits pyrMaxBaseCells, up to the coarsest
// level whose cells are no wider than the extent.
func pyrLevelBounds(minT, maxT int64) (lmin, lmax uint) {
	width := uint64(maxT) - uint64(minT) + 1
	for lmin < 62 && width>>lmin > pyrMaxBaseCells {
		lmin++
	}
	lmax = lmin
	for lmax < 62 && lmax-lmin+1 < pyrMaxLevels && uint64(1)<<(lmax+1) <= width {
		lmax++
	}
	return lmin, lmax
}

// pyrMarkStale records that the merged contents of the half-open range
// [start, end) of seriesID may have changed. Safe to over-mark: staleness
// only forces fallback and rebuild work, never wrong answers.
func (e *Engine) pyrMarkStale(seriesID string, start, end int64) {
	p := e.pyr
	if p == nil || end <= start {
		return
	}
	p.mu.Lock()
	sp := p.series[seriesID]
	if sp == nil {
		sp = &seriesPyramid{}
		p.series[seriesID] = sp
	}
	sp.stale.add(start, end)
	p.mu.Unlock()
	p.invalidations.Add(1)
}

// pyrMarkStaleClosed marks the closed range [start, end] stale (the shape
// deletes use), clamping the +1 at the int64 edge.
func (e *Engine) pyrMarkStaleClosed(seriesID string, start, end int64) {
	if end == math.MaxInt64 {
		e.pyrMarkStale(seriesID, start, end)
		return
	}
	e.pyrMarkStale(seriesID, start, end+1)
}

// pyrMarkStalePoints marks the time extent of a write batch stale. Called
// under the owning shard's lock, before the points land in the memtable.
func (e *Engine) pyrMarkStalePoints(seriesID string, pts []series.Point) {
	if e.pyr == nil || len(pts) == 0 {
		return
	}
	lo, hi := pts[0].T, pts[0].T
	for _, p := range pts[1:] {
		if p.T < lo {
			lo = p.T
		}
		if p.T > hi {
			hi = p.T
		}
	}
	e.pyrMarkStaleClosed(seriesID, lo, hi)
}

// pyrRebuildShard rebuilds the stale cells of every series owned by sh.
// Called at the end of a flush or compaction with sh.mu held and the
// shard's memtable empty, so sh.chunks plus the mods sidecar are exactly
// the merged state the cells must reflect. Only the StepHook (fault
// injection) can fail it; read errors leave the affected series stale for
// the next rebuild.
func (e *Engine) pyrRebuildShard(sh *shard) error {
	p := e.pyr
	if p == nil {
		return nil
	}
	p.mu.RLock()
	var ids []string
	for id, sp := range p.series {
		if len(sp.stale) > 0 && shardIndex(id, len(e.shards)) == sh.ix {
			ids = append(ids, id)
		}
	}
	p.mu.RUnlock()
	if len(ids) == 0 {
		return nil
	}
	sort.Strings(ids)
	for _, id := range ids {
		if err := e.step("pyramid.rebuild"); err != nil {
			return err
		}
		e.pyrRebuildSeries(sh, id)
	}
	return nil
}

// pyrRebuildSeries re-reads the stale ranges of one series and patches its
// cells bottom-up: the base level from a merged read of the expanded stale
// ranges, every coarser level derived from its children. Caller holds
// sh.mu; the pyramid mutex is taken only around in-memory snapshots and the
// final apply, never across the read.
func (e *Engine) pyrRebuildSeries(sh *shard, id string) {
	p := e.pyr

	p.mu.RLock()
	sp := p.series[id]
	if sp == nil || len(sp.stale) == 0 {
		p.mu.RUnlock()
		return
	}
	staleCopy := sp.stale.clone()
	oldLmin, hadLevels := uint(0), false
	if len(sp.levels) > 0 {
		oldLmin, hadLevels = sp.levels[0].log, true
	}
	p.mu.RUnlock()

	// Extent and live chunk set from the registered metadata (the memtable
	// is empty). Quarantined chunks are invisible to queries, so they are
	// invisible to cells too; their ranges were marked stale on quarantine.
	var live []chunkEntry
	var minT, maxT int64
	has := false
	e.quarMu.Lock()
	for _, ce := range sh.chunks[id] {
		if _, bad := e.quarantined[chunkID{ce.meta.SeriesID, ce.meta.Version}]; bad {
			continue
		}
		live = append(live, ce)
		if !has {
			minT, maxT, has = ce.meta.First.T, ce.meta.Last.T, true
		} else {
			if ce.meta.First.T < minT {
				minT = ce.meta.First.T
			}
			if ce.meta.Last.T > maxT {
				maxT = ce.meta.Last.T
			}
		}
	}
	e.quarMu.Unlock()

	if !has {
		// No live flushed data: drop the cells. Stale ranges marked while
		// we looked (concurrent quarantines) survive the subtract.
		p.mu.Lock()
		if cur := p.series[id]; cur != nil {
			cur.levels = nil
			cur.hasExtent = false
			cur.stale = cur.stale.subtract(staleCopy)
			if len(cur.stale) == 0 {
				delete(p.series, id)
			}
			p.dirty = true
		}
		p.mu.Unlock()
		p.rebuilds.Add(1)
		return
	}

	// The base level never gets finer: absolute alignment keeps coarse
	// cells valid when the extent shrinks, and re-fining would force a
	// full rebuild for no query-cost win.
	lmin, lmax := pyrLevelBounds(minT, maxT)
	if hadLevels && oldLmin > lmin {
		lmin = oldLmin
	}
	if lmax < lmin {
		lmax = lmin
	}
	if lmax-lmin+1 > pyrMaxLevels {
		lmax = lmin + pyrMaxLevels - 1
	}

	// Expand the stale ranges to base-cell alignment, clipped to the
	// extent (padded one cell so edge cells rebuild whole): data outside
	// the extent does not exist, and coverage there would be wasted.
	base := lmin
	clipLo, clipHi := cellFloor(minT, base), cellCeil(maxT+1, base)
	var rebuildT rset
	for _, r := range staleCopy.intersect(clipLo, clipHi) {
		rebuildT.add(cellFloor(r.lo, base), cellCeil(r.hi, base))
	}

	// Merged read of each rebuild range through the same machinery queries
	// use, so cells inherit the exact merge/delete semantics.
	type baseBuild struct {
		idxLo, idxHi int64
		cells        map[int64]pyrCell
	}
	deletes := e.modsLog().ForSeries(id)
	builds := make([]baseBuild, 0, len(rebuildT))
	for _, r := range rebuildT {
		tr := series.TimeRange{Start: r.lo, End: r.hi}
		snap := &storage.Snapshot{SeriesID: id, Stats: &storage.Stats{}}
		for _, ce := range live {
			if ce.meta.OverlapsRange(tr) {
				snap.Chunks = append(snap.Chunks, storage.NewChunkRef(ce.meta, ce.src, snap.Stats))
			}
		}
		for _, d := range deletes {
			if d.Start < tr.End && d.End >= tr.Start {
				snap.Deletes = append(snap.Deletes, d)
			}
		}
		pts, err := mergeread.Merge(snap, tr)
		if err != nil {
			// Leave every stale range in place; the next flush retries.
			p.rebuildErrors.Add(1)
			return
		}
		cells := make(map[int64]pyrCell, len(pts)/2+1)
		for _, pt := range pts {
			idx := pt.T >> base
			c, ok := cells[idx]
			c.observe(pt, !ok)
			cells[idx] = c
		}
		builds = append(builds, baseBuild{idxLo: r.lo >> base, idxHi: r.hi >> base, cells: cells})
	}

	// Apply: restructure levels, patch the base, derive coarser levels
	// from their children, clear the stale ranges we covered.
	p.mu.Lock()
	defer p.mu.Unlock()
	sp = p.series[id]
	if sp == nil {
		sp = &seriesPyramid{}
		p.series[id] = sp
	}
	sp.minT, sp.maxT, sp.hasExtent = minT, maxT, true

	nLevels := int(lmax - lmin + 1)
	levels := make([]*pyrLevel, nLevels)
	fresh := make([]bool, nLevels)
	for i := range levels {
		log := lmin + uint(i)
		if lv := sp.level(log); lv != nil {
			levels[i] = lv
		} else {
			levels[i] = &pyrLevel{log: log, cells: make(map[int64]pyrCell)}
			fresh[i] = true
		}
	}
	sp.levels = levels

	// When the extent shrank (a tail/head range delete compacted away),
	// cells beyond the new extent keep no data behind them but their stale
	// ranges are about to be cleared — drop them and their coverage so they
	// can't serve deleted data. A cell survives only when it lies FULLY
	// inside the clip window: keeping a boundary parent whose out-of-extent
	// child is dropped would break the parent⇒children coverage invariant,
	// and when data later reappears there the orphaned parent would keep
	// serving its old value. The map scan runs only when coverage actually
	// sticks out of the window.
	for _, lv := range levels {
		idxLo := (clipLo + int64(1)<<lv.log - 1) >> lv.log // ceil
		idxHi := clipHi >> lv.log                          // floor
		if idxHi < idxLo {
			idxHi = idxLo
		}
		clipped := lv.cover.intersect(idxLo, idxHi)
		if clipped.size() != lv.cover.size() {
			lv.cover = clipped
			for idx := range lv.cells {
				if idx < idxLo || idx >= idxHi {
					delete(lv.cells, idx)
				}
			}
			lv.gen++
		}
	}

	baseLv := levels[0]
	var touched rset
	for _, b := range builds {
		for idx := b.idxLo; idx < b.idxHi; idx++ {
			if c, ok := b.cells[idx]; ok {
				baseLv.cells[idx] = c
			} else {
				delete(baseLv.cells, idx)
			}
		}
		baseLv.cover.add(b.idxLo, b.idxHi)
		touched.add(b.idxLo, b.idxHi)
	}
	baseLv.gen++

	for li := 1; li < nLevels; li++ {
		child, parent := levels[li-1], levels[li]
		// A fresh level derives from the child's whole coverage; an
		// existing one only where the child changed.
		src := touched
		if fresh[li] {
			src = child.cover
		}
		// Parent coverage: a parent cell is known iff both children are.
		for _, r := range child.cover {
			if pLo, pHi := (r.lo+1)>>1, r.hi>>1; pLo < pHi {
				parent.cover.add(pLo, pHi)
			}
		}
		var ptouch rset
		for _, r := range src {
			ptouch.add(r.lo>>1, ((r.hi-1)>>1)+1)
		}
		for _, r := range ptouch {
			for idx := r.lo; idx < r.hi; idx++ {
				if !parent.cover.contains(idx, idx+1) {
					delete(parent.cells, idx)
					continue
				}
				a, aok := child.cells[idx<<1]
				b, bok := child.cells[idx<<1|1]
				switch {
				case aok && bok:
					parent.cells[idx] = combineCells(a, b)
				case aok:
					parent.cells[idx] = a
				case bok:
					parent.cells[idx] = b
				default:
					delete(parent.cells, idx)
				}
			}
		}
		parent.gen++
		touched = ptouch
	}

	sp.stale = sp.stale.subtract(staleCopy)
	p.dirty = true
	p.rebuilds.Add(1)
}

// pyramidView is the PyramidSource attached to a snapshot: per level, the
// generation and the usable cell-index ranges (covered, not stale, clipped
// to the query range), captured under the pyramid lock at snapshot time.
type pyramidView struct {
	p      *pyramid
	id     string
	levels []pyrViewLevel
}

type pyrViewLevel struct {
	log    uint
	gen    uint64
	usable rset
}

// pyrViewFor builds the snapshot view, or nil when the series has no cells.
func (e *Engine) pyrViewFor(seriesID string, r series.TimeRange) storage.PyramidSource {
	p := e.pyr
	if p == nil || r.End <= r.Start {
		return nil
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	sp := p.series[seriesID]
	if sp == nil || len(sp.levels) == 0 {
		return nil
	}
	v := &pyramidView{p: p, id: seriesID, levels: make([]pyrViewLevel, 0, len(sp.levels))}
	for _, lv := range sp.levels {
		qLo := r.Start >> lv.log
		qHi := ((r.End - 1) >> lv.log) + 1
		usable := lv.cover.intersect(qLo, qHi)
		if len(usable) > 0 && len(sp.stale) > 0 {
			var staleIdx rset
			for _, s := range sp.stale {
				staleIdx.add(s.lo>>lv.log, ((s.hi-1)>>lv.log)+1)
			}
			usable = usable.subtract(staleIdx)
		}
		v.levels = append(v.levels, pyrViewLevel{log: lv.log, gen: lv.gen, usable: usable})
	}
	return v
}

// PlanSpans implements storage.PyramidSource in one pass under one pyramid
// read lock: each view level is checked against its live generation once,
// so a rebuild racing an old snapshot forces fallback instead of serving
// cells newer than the snapshot's chunk list. Each span's cell-aligned
// interior is then tiled greedily, coarsest usable level first, and its
// cells folded straight into the span's aggregate.
func (v *pyramidView) PlanSpans(q m4.Query, spans []storage.PyramidSpan, aggs []m4.Aggregate) int {
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
	// live[li] is view level li's cells, nil when rebuilt since the snapshot.
	var live [pyrMaxLevels]*pyrLevel
	for li, vl := range v.levels {
		if lv := sp.level(vl.log); lv != nil && lv.gen == vl.gen {
			live[li] = lv
		}
	}
	base := v.levels[0].log
	planned := 0
	for i := range spans {
		span := q.Span(i)
		slot := storage.PyramidSpan{Lo: cellCeil(span.Start, base), Hi: cellFloor(span.End, base)}
		agg := m4.Aggregate{Empty: true}
		pos := slot.Lo
		for pos < slot.Hi && slot.Cells < pyrMaxPlanCells {
			li := len(v.levels) - 1
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
			if c, ok := live[li].cells[idx]; ok {
				agg.Merge(m4.Aggregate{First: c.first, Last: c.last, Bottom: c.bottom, Top: c.top})
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

// pyrMaybeSave writes the manifest if cells changed since the last save.
// Save failures are swallowed (counted): a stale manifest is safe because
// the watermark re-marks anything newer on reopen. Only the StepHook can
// make it fail, simulating a crash between flush and save.
func (e *Engine) pyrMaybeSave() error {
	p := e.pyr
	if p == nil {
		return nil
	}
	p.saveMu.Lock()
	defer p.saveMu.Unlock()
	p.mu.RLock()
	dirty := p.dirty
	p.mu.RUnlock()
	if !dirty {
		return nil
	}
	if err := e.step("pyramid.save"); err != nil {
		return err
	}
	// The watermark is read BEFORE the state snapshot: versions allocated
	// during the encode get Version >= wm and are re-marked stale on
	// reopen even if the snapshot happened to include their effects.
	wm := e.nextVer.Load()
	p.mu.Lock()
	p.dirty = false
	payload := encodePyramid(p.series, wm)
	p.mu.Unlock()
	path := filepath.Join(e.opts.Dir, pyramidFileName)
	if err := writeFileAtomic(path, payload); err != nil {
		p.mu.Lock()
		p.dirty = true
		p.mu.Unlock()
		p.saveErrors.Add(1)
		return nil
	}
	p.saves.Add(1)
	return nil
}

func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// pyrLoad restores the manifest and re-marks everything it may predate:
// chunks and deletes with Version >= the saved watermark, or everything
// when the manifest is missing or corrupt. Runs single-threaded during
// Open, after chunk files and the mods sidecar are loaded and before WAL
// replay (which marks its own ranges).
func (e *Engine) pyrLoad() {
	p := e.pyr
	if p == nil {
		return
	}
	var wm uint64
	data, err := os.ReadFile(filepath.Join(e.opts.Dir, pyramidFileName))
	if err == nil {
		if sers, w, derr := decodePyramid(data); derr == nil {
			p.series, wm = sers, w
		}
	}
	// wm stays 0 when nothing was restored: every chunk and delete below
	// re-marks stale, which is exactly the no-manifest degradation.
	for _, sh := range e.shards {
		for id, ces := range sh.chunks {
			for _, ce := range ces {
				if uint64(ce.meta.Version) >= wm {
					e.pyrMarkStaleClosed(id, ce.meta.First.T, ce.meta.Last.T)
				}
			}
		}
	}
	for _, d := range e.modsLog().All() {
		if uint64(d.Version) >= wm {
			e.pyrMarkStaleClosed(d.SeriesID, d.Start, d.End)
		}
	}
}

// pyrStats summarizes the pyramid for Info and the metrics gauges.
type pyrStats struct {
	series      int
	cells       int
	staleRanges int
}

func (e *Engine) pyrInfo() pyrStats {
	p := e.pyr
	if p == nil {
		return pyrStats{}
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	var st pyrStats
	st.series = len(p.series)
	for _, sp := range p.series {
		st.staleRanges += len(sp.stale)
		for _, lv := range sp.levels {
			st.cells += len(lv.cells)
		}
	}
	return st
}

// encodePyramid serializes every series' extent, stale set and levels with
// the version watermark, CRC-trailed. Generations are volatile and not
// persisted.
func encodePyramid(sers map[string]*seriesPyramid, wm uint64) []byte {
	ids := make([]string, 0, len(sers))
	for id := range sers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	buf := append([]byte(nil), pyrMagic...)
	var pl []byte
	pl = encoding.AppendUvarint(pl, wm)
	pl = encoding.AppendUvarint(pl, uint64(len(ids)))
	for _, id := range ids {
		sp := sers[id]
		pl = encoding.AppendUvarint(pl, uint64(len(id)))
		pl = append(pl, id...)
		if sp.hasExtent {
			pl = append(pl, 1)
			pl = encoding.AppendVarint(pl, sp.minT)
			pl = encoding.AppendVarint(pl, sp.maxT)
		} else {
			pl = append(pl, 0)
		}
		pl = appendRset(pl, sp.stale)
		pl = encoding.AppendUvarint(pl, uint64(len(sp.levels)))
		for _, lv := range sp.levels {
			pl = encoding.AppendUvarint(pl, uint64(lv.log))
			pl = appendRset(pl, lv.cover)
			pl = encoding.AppendUvarint(pl, uint64(len(lv.cells)))
			idxs := make([]int64, 0, len(lv.cells))
			for idx := range lv.cells {
				idxs = append(idxs, idx)
			}
			sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
			for _, idx := range idxs {
				c := lv.cells[idx]
				pl = encoding.AppendVarint(pl, idx)
				for _, pt := range [4]series.Point{c.first, c.last, c.bottom, c.top} {
					pl = encoding.AppendVarint(pl, pt.T)
					pl = binary.LittleEndian.AppendUint64(pl, math.Float64bits(pt.V))
				}
			}
		}
	}
	buf = append(buf, pl...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(pl))
}

// decodePyramid inverts encodePyramid; any framing violation rejects the
// whole manifest.
func decodePyramid(data []byte) (map[string]*seriesPyramid, uint64, error) {
	if len(data) < len(pyrMagic)+4 || string(data[:len(pyrMagic)]) != string(pyrMagic) {
		return nil, 0, errPyrCorrupt
	}
	pl := data[len(pyrMagic) : len(data)-4]
	if crc32.ChecksumIEEE(pl) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return nil, 0, errPyrCorrupt
	}
	wm, pl, err := encoding.Uvarint(pl)
	if err != nil {
		return nil, 0, err
	}
	nSeries, pl, err := encoding.Uvarint(pl)
	if err != nil {
		return nil, 0, err
	}
	sers := make(map[string]*seriesPyramid, nSeries)
	for si := uint64(0); si < nSeries; si++ {
		var idLen uint64
		idLen, pl, err = encoding.Uvarint(pl)
		if err != nil {
			return nil, 0, err
		}
		if idLen > uint64(len(pl)) {
			return nil, 0, errPyrCorrupt
		}
		id := string(pl[:idLen])
		pl = pl[idLen:]
		sp := &seriesPyramid{}
		if len(pl) < 1 {
			return nil, 0, errPyrCorrupt
		}
		hasExtent := pl[0] == 1
		pl = pl[1:]
		if hasExtent {
			sp.minT, pl, err = encoding.Varint(pl)
			if err != nil {
				return nil, 0, err
			}
			sp.maxT, pl, err = encoding.Varint(pl)
			if err != nil {
				return nil, 0, err
			}
			sp.hasExtent = true
		}
		sp.stale, pl, err = parseRset(pl)
		if err != nil {
			return nil, 0, err
		}
		var nLevels uint64
		nLevels, pl, err = encoding.Uvarint(pl)
		if err != nil {
			return nil, 0, err
		}
		if nLevels > pyrMaxLevels {
			return nil, 0, errPyrCorrupt
		}
		var prevLog uint64
		for li := uint64(0); li < nLevels; li++ {
			var log uint64
			log, pl, err = encoding.Uvarint(pl)
			if err != nil {
				return nil, 0, err
			}
			if log > 62 || (li > 0 && log <= prevLog) {
				return nil, 0, errPyrCorrupt
			}
			prevLog = log
			lv := &pyrLevel{log: uint(log)}
			lv.cover, pl, err = parseRset(pl)
			if err != nil {
				return nil, 0, err
			}
			var nCells uint64
			nCells, pl, err = encoding.Uvarint(pl)
			if err != nil {
				return nil, 0, err
			}
			// 41 bytes minimum per cell bounds allocation to the input.
			if nCells > uint64(len(pl))/41+1 {
				return nil, 0, errPyrCorrupt
			}
			lv.cells = make(map[int64]pyrCell, nCells)
			for ci := uint64(0); ci < nCells; ci++ {
				var idx int64
				idx, pl, err = encoding.Varint(pl)
				if err != nil {
					return nil, 0, err
				}
				var c pyrCell
				for _, pt := range [4]*series.Point{&c.first, &c.last, &c.bottom, &c.top} {
					pt.T, pl, err = encoding.Varint(pl)
					if err != nil {
						return nil, 0, err
					}
					if len(pl) < 8 {
						return nil, 0, errPyrCorrupt
					}
					pt.V = math.Float64frombits(binary.LittleEndian.Uint64(pl))
					pl = pl[8:]
				}
				lv.cells[idx] = c
			}
			sp.levels = append(sp.levels, lv)
		}
		sers[id] = sp
	}
	if len(pl) != 0 {
		return nil, 0, errPyrCorrupt
	}
	return sers, wm, nil
}

func appendRset(dst []byte, s rset) []byte {
	dst = encoding.AppendUvarint(dst, uint64(len(s)))
	for _, r := range s {
		dst = encoding.AppendVarint(dst, r.lo)
		dst = encoding.AppendVarint(dst, r.hi)
	}
	return dst
}

func parseRset(b []byte) (rset, []byte, error) {
	n, b, err := encoding.Uvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(b))/2+1 {
		return nil, nil, errPyrCorrupt
	}
	var out rset
	var prevHi int64
	for i := uint64(0); i < n; i++ {
		var lo, hi int64
		lo, b, err = encoding.Varint(b)
		if err != nil {
			return nil, nil, err
		}
		hi, b, err = encoding.Varint(b)
		if err != nil {
			return nil, nil, err
		}
		if hi <= lo || (i > 0 && lo <= prevHi) {
			return nil, nil, fmt.Errorf("%w: unsorted range set", errPyrCorrupt)
		}
		prevHi = hi
		out = append(out, rng{lo, hi})
	}
	return out, b, nil
}
