package m4lsm

import (
	"bytes"
	"context"
	"fmt"

	"m4lsm/internal/m4"
	"m4lsm/internal/m4ql"
	"m4lsm/internal/mergeread"
	"m4lsm/internal/series"
	"m4lsm/internal/viz"
)

// Raw returns the merged ("latest") points of a series in the half-open
// time range [tqs, tqe), in time order: overwrites resolved by version,
// deletes applied. This is the full-resolution read path that M4 queries
// avoid scanning. The tuple form cannot flag a partial answer, so it reads
// strictly: an unreadable or quarantined chunk is an error.
func (db *DB) Raw(seriesID string, tqs, tqe int64) ([]Point, error) {
	if tqe <= tqs {
		return nil, fmt.Errorf("m4lsm: empty range [%d, %d)", tqs, tqe)
	}
	r := series.TimeRange{Start: tqs, End: tqe}
	snap, err := db.engine.Snapshot(seriesID, r)
	if err != nil {
		return nil, err
	}
	if ws := snap.Warnings.List(); len(ws) > 0 {
		return nil, fmt.Errorf("m4lsm: strict read: %s", ws[0])
	}
	merged, err := mergeread.Merge(snap, r)
	if err != nil {
		return nil, err
	}
	out := make([]Point, len(merged))
	for i, p := range merged {
		out[i] = Point{Time: p.T, Value: p.V}
	}
	return out, nil
}

// Render draws the series over [tqs, tqe) as a two-color PNG line chart of
// w×h pixels and returns the encoded image. The chart is computed with the
// M4-LSM operator at w spans, so it is pixel-identical to rendering the
// full series (the paper's error-free guarantee) at a fraction of the
// read cost. Like M4WithOptions it reads strictly: a PNG cannot carry a
// Partial flag, so missing data is an error, never a silently wrong chart.
func (db *DB) Render(seriesID string, tqs, tqe int64, w, h int) ([]byte, error) {
	if h <= 0 {
		return nil, fmt.Errorf("m4lsm: height must be positive, got %d", h)
	}
	ctx, stmt, err := M4Options{StrictReads: true}.statement(context.Background(), []string{seriesID}, tqs, tqe, w)
	if err != nil {
		return nil, err
	}
	outs, err := m4ql.Read(ctx, db.engine, stmt)
	if err != nil {
		return nil, err
	}
	reduced := m4.Points(outs[0].Aggregates)
	vp := viz.ViewportFor(reduced, tqs, tqe)
	canvas := viz.Rasterize(reduced, vp, w, h)
	var buf bytes.Buffer
	if err := canvas.WritePNG(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
