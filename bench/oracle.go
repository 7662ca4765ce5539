package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"m4lsm/internal/lsm"
	"m4lsm/internal/m4"
	"m4lsm/internal/m4ql"
	"m4lsm/internal/m4udf"
	"m4lsm/internal/series"
	"m4lsm/internal/viz"
)

// checkResponse compares one response with the answer M4-UDF — merge every
// chunk, then scan — gives over the engine's current state: the paper's
// error-free claim, checked where the user sees it.
func checkResponse(eng *lsm.Engine, r *request, resp []byte) error {
	switch r.kind {
	case kindQuery:
		return checkQuery(eng, r, resp)
	case kindRender:
		return checkRender(eng, r, resp)
	}
	return nil
}

// The columns of an `M4(*)` row after the span index. Bottom and top are
// compared by value only: on a tie Definition 2.1 allows any extremal point.
var comparedColumns = []string{"FirstTime", "FirstValue", "LastTime", "LastValue", "BottomValue", "TopValue"}

func checkQuery(eng *lsm.Engine, r *request, resp []byte) error {
	var got m4ql.Result
	if err := json.Unmarshal(resp, &got); err != nil {
		return fmt.Errorf("request %d: bad /query JSON: %w", r.id, err)
	}
	if got.Partial {
		return fmt.Errorf("request %d: partial result: %v", r.id, got.Warnings)
	}
	want, err := m4ql.Run(eng, r.stmt+" USING UDF")
	if err != nil {
		return fmt.Errorf("request %d: oracle: %w", r.id, err)
	}
	if len(got.Rows) != len(want.Rows) || got.SpanCount != want.SpanCount {
		return fmt.Errorf("request %d: %d rows of %d spans, oracle has %d of %d", r.id, len(got.Rows), got.SpanCount, len(want.Rows), want.SpanCount)
	}
	col := map[string]int{}
	for i, name := range want.Columns {
		col[name] = i
	}
	for i, row := range got.Rows {
		if row[0] != want.Rows[i][0] {
			return fmt.Errorf("request %d: row %d is span %v, oracle has span %v", r.id, i, row[0], want.Rows[i][0])
		}
		for _, name := range comparedColumns {
			if c := col[name]; row[c] != want.Rows[i][c] {
				return fmt.Errorf("request %d: span %v %s = %v, oracle has %v", r.id, row[0], name, row[c], want.Rows[i][c])
			}
		}
	}
	return nil
}

func checkRender(eng *lsm.Engine, r *request, resp []byte) error {
	snap, err := eng.Snapshot(r.series, r.q.Range())
	if err != nil {
		return fmt.Errorf("request %d: oracle snapshot: %w", r.id, err)
	}
	aggs, err := m4udf.Compute(snap, r.q)
	if err != nil {
		return fmt.Errorf("request %d: oracle: %w", r.id, err)
	}
	want, err := rasterPNG(m4.Points(aggs), r.q, r.height)
	if err != nil {
		return err
	}
	if !bytes.Equal(resp, want) {
		return fmt.Errorf("request %d: /render PNG (%d bytes) differs from the one drawn from the M4-UDF answer (%d bytes)", r.id, len(resp), len(want))
	}
	return nil
}

// rasterPNG draws one reduced series the way /render does.
func rasterPNG(pts series.Series, q m4.Query, height int) ([]byte, error) {
	vp := viz.ViewportForAll([]series.Series{pts}, q.Tqs, q.Tqe)
	canvas := viz.NewCanvas(q.W, height)
	viz.RasterizeOnto(canvas, pts, vp)
	var buf bytes.Buffer
	if err := canvas.WritePNG(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
