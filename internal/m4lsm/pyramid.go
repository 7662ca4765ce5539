package m4lsm

import (
	"fmt"

	"m4lsm/internal/m4"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
)

// Pyramid-aware span planning. When the snapshot carries a rollup pyramid
// (storage.Snapshot.Pyramid), a span whose interior decomposes into valid
// precomputed cells is answered as
//
//	Combine(left fragment, cells..., right fragment)
//
// where the fragments are the sub-cell slivers at the span's edges,
// computed exactly by the ordinary candidate loop over only the chunks
// overlapping them. Every cell holds the FP/LP/BP/TP of the fully-merged
// series restricted to its interval (cells are built by mergeread at flush
// time), and m4.Combine is exact over a time-ordered partition, so the
// result is identical to running the candidate loop over the whole span —
// but its cost is O(cells + fragment chunks), independent of how many
// chunks or points the span's interior holds. Spans the pyramid cannot
// cover (stale cells, memtable overlap, fragmented coverage) fall back to
// the unchanged span×G path.

// pyrSpanPlan is one span's pyramid decomposition.
type pyrSpanPlan struct {
	cells                   []storage.PyramidCell
	leftRange               series.TimeRange // [span.Start, cells[0].Start)
	rightRange              series.TimeRange // [last cell End, span.End)
	leftChunks, rightChunks []*chunkState
}

// planPyramid asks the snapshot's pyramid about every non-empty span,
// returning a per-span plan slice, or nil when the pyramid is absent or
// disabled. Chunk routing and classification happen in newSeriesPlan.
func planPyramid(snap *storage.Snapshot, q m4.Query, opts Options) []*pyrSpanPlan {
	if snap.Pyramid == nil || opts.DisablePyramid {
		return nil
	}
	plans := make([]*pyrSpanPlan, q.W)
	any := false
	for i := 0; i < q.W; i++ {
		s := q.Span(i)
		if s.Empty() {
			continue
		}
		cells, ok := snap.Pyramid.PlanSpan(s.Start, s.End)
		if !ok || len(cells) == 0 {
			continue
		}
		plans[i] = &pyrSpanPlan{
			cells:      cells,
			leftRange:  series.TimeRange{Start: s.Start, End: cells[0].Start},
			rightRange: series.TimeRange{Start: cells[len(cells)-1].End, End: s.End},
		}
		any = true
	}
	if !any {
		return nil
	}
	return plans
}

// cellAgg converts one pyramid cell to its span aggregate.
func cellAgg(c storage.PyramidCell) m4.Aggregate {
	if c.Empty {
		return m4.Aggregate{Empty: true}
	}
	return m4.Aggregate{First: c.First, Last: c.Last, Bottom: c.Bottom, Top: c.Top}
}

// cellsOnly answers a pyramid span with no boundary chunks: the fragments
// are provably empty, so the cells alone are the whole span.
func (pp *pyrSpanPlan) cellsOnly() m4.Aggregate {
	parts := make([]m4.Aggregate, len(pp.cells))
	for i, c := range pp.cells {
		parts[i] = cellAgg(c)
	}
	return m4.Combine(parts...)
}

// computePyramidSpan evaluates pyramid span k (indexing p.pyrWork): both
// boundary fragments through the candidate loop, stitched with the cells.
// Runs as one wave-1 pool task on the worker's scratch sc.
func (p *seriesPlan) computePyramidSpan(sc *spanComputer, k int) error {
	i := p.pyrWork[k]
	pp := p.pyr[i]
	left, err := p.fragmentAgg(sc, i, pp.leftRange, pp.leftChunks)
	if err != nil {
		return err
	}
	right, err := p.fragmentAgg(sc, i, pp.rightRange, pp.rightChunks)
	if err != nil {
		return err
	}
	parts := make([]m4.Aggregate, 0, len(pp.cells)+2)
	parts = append(parts, left)
	for _, c := range pp.cells {
		parts = append(parts, cellAgg(c))
	}
	parts = append(parts, right)
	p.out[i] = m4.Combine(parts...)
	return nil
}

// fragmentAgg computes the full aggregate of one boundary fragment with
// the ordinary candidate loop, restricted to the chunks overlapping it. A
// fragment is narrower than one base cell, so this is O(1) chunks for
// in-order data. Degradation mirrors assemble: when a chunk was dropped
// mid-query and a later function comes up empty, FP substitutes.
func (p *seriesPlan) fragmentAgg(sc *spanComputer, i int, r series.TimeRange, states []*chunkState) (m4.Aggregate, error) {
	if r.End <= r.Start || len(states) == 0 {
		return m4.Aggregate{Empty: true}, nil
	}
	// All four functions run in this one task, so the fragment's
	// assignments live in the worker's scratch, not in the plan.
	chunks := sc.frag[:0]
	for _, cs := range states {
		chunks = append(chunks, assignment{cs: cs})
	}
	sc.frag = chunks
	op := p.op
	fp, ok, err := op.timedG(sc, i, r, chunks, gFP)
	if err != nil {
		return m4.Aggregate{}, err
	}
	if !ok {
		return m4.Aggregate{Empty: true}, nil
	}
	out := m4.Aggregate{First: fp, Last: fp, Bottom: fp, Top: fp}
	slots := [...]*series.Point{gLP: &out.Last, gBP: &out.Bottom, gTP: &out.Top}
	for kind := gLP; kind <= gTP; kind++ {
		pt, ok, err := op.timedG(sc, i, r, chunks, kind)
		if err != nil {
			return m4.Aggregate{}, err
		}
		if !ok {
			if !op.opts.Strict && op.degraded.Load() {
				op.snap.Warnings.Add("span %d: %v lost with its dropped chunks, substituted FP", i, kind)
				continue
			}
			return m4.Aggregate{}, fmt.Errorf("internal: span %d: %v empty after FP found %v", i, kind, fp)
		}
		*slots[kind] = pt
	}
	return out, nil
}
