package pyramid

import (
	"slices"

	"m4lsm/internal/m4"
	"m4lsm/internal/series"
)

// Rebuild re-reads the stale ranges of series id and patches its cells
// bottom-up: the base level from read's merged, delete-applied points over
// the expanded stale ranges, every coarser level derived from its children.
// [first, last] is the series' data extent over the data read can see;
// first > last means there is none, and drops the series' cells. A read
// error leaves every stale range in place for the next rebuild. read runs
// without the pyramid's lock, which is taken only around in-memory
// snapshots and the final apply. Its cost is linear in the cells the stale
// ranges touch plus the levels' coverage sets, plus, per re-derived index
// range, one memmove of the level's cells after it; it never reads the
// cells the series holds elsewhere.
func (p *Pyramid) Rebuild(id string, first, last int64, read func(series.TimeRange) (series.Series, error)) {
	p.mu.RLock()
	sp := p.series[id]
	if sp == nil || len(sp.stale) == 0 {
		p.mu.RUnlock()
		return
	}
	staleCopy := slices.Clone(sp.stale)
	oldLmin, hadLevels := uint(0), false
	if len(sp.levels) > 0 {
		oldLmin, hadLevels = sp.levels[0].log, true
	}
	p.mu.RUnlock()

	if first > last {
		// No data left: drop the cells. Stale ranges marked while we looked
		// (concurrent quarantines) survive the subtract.
		p.mu.Lock()
		if cur := p.series[id]; cur != nil {
			cur.levels = nil
			cur.hasExtent = false
			cur.stale = cur.stale.subtract(staleCopy)
			if len(cur.stale) == 0 {
				delete(p.series, id)
			}
			p.dirty.Store(true)
		}
		p.mu.Unlock()
		p.rebuilds.Add(1)
		return
	}

	// The base level never gets finer: absolute alignment keeps coarse
	// cells valid when the extent shrinks, and re-fining would force a
	// full rebuild for no query-cost win.
	lmin, lmax := levelBounds(first, last)
	if hadLevels && oldLmin > lmin {
		lmin = oldLmin
	}
	if lmax < lmin {
		lmax = lmin
	}
	if lmax-lmin+1 > maxLevels {
		lmax = lmin + maxLevels - 1
	}

	// Expand the stale ranges to base-cell alignment, clipped to the
	// extent (padded one cell so edge cells rebuild whole): data outside
	// the extent does not exist, and coverage there would be wasted.
	base := lmin
	clipLo, clipHi := cellFloor(first, base), cellCeil(last+1, base)
	var rebuildT rset
	for _, r := range staleCopy.intersect(clipLo, clipHi) {
		rebuildT = rebuildT.push(cellFloor(r.lo, base), cellCeil(r.hi, base))
	}

	// Merged read of each rebuild range, so cells inherit the exact
	// merge/delete semantics of the queries they stand in for. The points
	// arrive in time order, so each range's non-empty base cells fold
	// straight into one shared slice, in index order: build b owns
	// cells[b.from:b.to].
	type baseBuild struct {
		idxLo, idxHi int64
		from, to     int
	}
	builds := make([]baseBuild, 0, len(rebuildT))
	var cells []cellAt
	for _, r := range rebuildT {
		pts, err := read(series.TimeRange{Start: r.lo, End: r.hi})
		if err != nil {
			// Leave every stale range in place; the next rebuild retries.
			p.rebuildErrors.Add(1)
			return
		}
		b := baseBuild{idxLo: r.lo >> base, idxHi: r.hi >> base, from: len(cells)}
		for _, pt := range pts {
			if pt.T < r.lo || pt.T >= r.hi {
				continue // a stray point would break the level's index order
			}
			if idx := pt.T >> base; len(cells) > b.from && cells[len(cells)-1].idx == idx {
				cells[len(cells)-1].agg.Observe(pt)
			} else {
				cells = append(cells, cellAt{idx: idx, agg: m4.Aggregate{First: pt, Last: pt, Bottom: pt, Top: pt}})
			}
		}
		b.to = len(cells)
		builds = append(builds, b)
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
	sp.minT, sp.maxT, sp.hasExtent = first, last, true

	nLevels := int(lmax - lmin + 1)
	levels := make([]*level, nLevels)
	fresh := make([]bool, nLevels)
	for i := range levels {
		log := lmin + uint(i)
		if lv := sp.level(log); lv != nil {
			levels[i] = lv
		} else {
			levels[i] = &level{log: log}
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
	// serving its old value. The cells sit in index order, so dropping them
	// trims both ends of the slice.
	for _, lv := range levels {
		idxLo := (clipLo + int64(1)<<lv.log - 1) >> lv.log // ceil
		idxHi := clipHi >> lv.log                          // floor
		if idxHi < idxLo {
			idxHi = idxLo
		}
		clipped := lv.cover.intersect(idxLo, idxHi)
		if clipped.size() != lv.cover.size() {
			lv.cover = clipped
			lv.cells = lv.cells[seek(lv.cells, 0, idxLo):seek(lv.cells, 0, idxHi)]
			lv.gen++
		}
	}

	// Each rebuilt index range's cells are replaced by its fresh ones, and
	// each parent range a change reaches by its re-derived ones.
	baseLv := levels[0]
	var touched rset
	at := 0
	for _, b := range builds {
		at = baseLv.splice(at, b.idxLo, b.idxHi, cells[b.from:b.to])
		touched = touched.push(b.idxLo, b.idxHi)
	}
	baseLv.cover = baseLv.cover.union(touched)
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
		// Both sets are sorted, so this is one merge, not an add per range.
		var known rset
		for _, r := range child.cover {
			known = known.push((r.lo+1)>>1, r.hi>>1)
		}
		parent.cover = parent.cover.union(known)
		var ptouch rset
		for _, r := range src {
			ptouch = ptouch.push(r.lo>>1, ((r.hi-1)>>1)+1)
		}
		at, k := 0, 0 // cursors into parent.cells and child.cells
		for _, r := range ptouch {
			// derived reuses the buffer of cells already spliced in.
			var derived []cellAt
			derived, k = fold(cells[:0], child.cells, k, r.lo, r.hi, parent.cover)
			at = parent.splice(at, r.lo, r.hi, derived)
			cells = derived
		}
		parent.gen++
		touched = ptouch
	}

	sp.stale = sp.stale.subtract(staleCopy)
	p.dirty.Store(true)
	p.rebuilds.Add(1)
}

// fold appends to dst, in index order, the parent cells of index range
// [lo, hi) that cover holds, each the fold of its non-empty children among
// child's cells from position k on, and returns dst and the position after
// the children it read. Rebuild and Decode derive every coarser level with
// it.
func fold(dst, child []cellAt, k int, lo, hi int64, cover rset) ([]cellAt, int) {
	for k = seek(child, k, lo<<1); k < len(child) && child[k].idx>>1 < hi; k++ {
		c := &child[k]
		idx := c.idx >> 1
		if n := len(dst); n > 0 && dst[n-1].idx == idx {
			dst[n-1].agg.Merge(c.agg)
		} else if cover.contains(idx, idx+1) {
			dst = append(dst, cellAt{idx: idx, agg: c.agg})
		}
	}
	return dst, k
}

// splice replaces the cells with index in [lo, hi) by with, whose indexes
// lie in that range in increasing order, and returns the position after
// them. The cells before position at have index below lo.
func (lv *level) splice(at int, lo, hi int64, with []cellAt) int {
	i := seek(lv.cells, at, lo)
	lv.cells = slices.Replace(lv.cells, i, seek(lv.cells, i, hi), with...)
	return i + len(with)
}
