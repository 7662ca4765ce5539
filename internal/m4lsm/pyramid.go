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
//	Combine(left fragment, folded cells, right fragment)
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

// planPyramid asks the snapshot's pyramid about every span in one call,
// returning one plan per span (Cells == 0: no pyramid answer), or nil when
// the pyramid is absent or answers no span. A planned span's folded cells
// land in out[i]. Chunk routing and classification happen in
// newSeriesPlan. A caller that wants the span×G path alone clears the
// snapshot's Pyramid.
func planPyramid(snap *storage.Snapshot, q m4.Query, out []m4.Aggregate) []storage.PyramidSpan {
	if snap.Pyramid == nil {
		return nil
	}
	spans := make([]storage.PyramidSpan, q.W)
	if snap.Pyramid.PlanSpans(q, spans, out) == 0 {
		return nil
	}
	return spans
}

// computePyramidSpan evaluates pyramid span k (indexing p.pyrWork): both
// boundary fragments through the candidate loop, stitched around the folded
// cells planPyramid left in p.out. Runs as one wave-1 pool task on the
// worker's scratch sc.
func (p *seriesPlan) computePyramidSpan(sc *spanComputer, k int) error {
	i := p.pyrWork[k]
	left, err := p.fragmentAgg(sc, i, 2*i)
	if err != nil {
		return err
	}
	right, err := p.fragmentAgg(sc, i, 2*i+1)
	if err != nil {
		return err
	}
	p.out[i] = m4.Combine(left, p.out[i], right)
	return nil
}

// fragmentAgg computes the full aggregate of the boundary fragment of span
// i held in chunk list l, with the ordinary candidate loop over its chunks. A
// fragment is narrower than one base cell, so this is O(1) chunks for
// in-order data. Degradation mirrors assemble: when a chunk was dropped
// mid-query and a later function comes up empty, FP substitutes.
func (p *seriesPlan) fragmentAgg(sc *spanComputer, i, l int) (m4.Aggregate, error) {
	r, chunks := p.listRange(l), p.chunks(l)
	if len(chunks) == 0 {
		return m4.Aggregate{Empty: true}, nil
	}
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
