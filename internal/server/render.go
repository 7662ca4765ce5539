// The /render endpoint: a chart is a query plus a drawing. The URL
// parameters become a REPRESENT statement, serve runs it like any /query,
// and the outcome's points are rasterized onto one canvas and written as a
// PNG.
package server

import (
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"m4lsm/internal/m4"
	"m4lsm/internal/m4ql"
	"m4lsm/internal/obs"
	"m4lsm/internal/reprops"
	"m4lsm/internal/series"
	"m4lsm/internal/viz"
)

// A /render canvas is at most maxRenderWidth × maxRenderHeight pixels: its
// size comes from the URL, and a canvas and the M4 answer behind it are
// allocated in proportion to it.
const (
	maxRenderWidth  = 8192
	maxRenderHeight = 4096
)

// renderStatement turns /render's URL parameters into the REPRESENT
// statement it runs and the canvas height, or into the status and error
// that refuse the request. The "series" parameter is one id, a
// comma-separated list (duplicates dropped, FROM order kept) or a prefix
// wildcard ending in "*" (bare "*" matches everything); it is read here
// rather than through m4ql's lexer, which reads neither an id such as
// "dev-1/temp" nor a "*" after anything but a ".". An unknown explicit id
// is a 404.
func (h *Handler) renderStatement(params url.Values) (stmt m4ql.Statement, height, code int, err error) {
	seriesParam := params.Get("series")
	if seriesParam == "" {
		return stmt, 0, http.StatusBadRequest, fmt.Errorf("missing series parameter")
	}
	tqs, err1 := strconv.ParseInt(params.Get("tqs"), 10, 64)
	tqe, err2 := strconv.ParseInt(params.Get("tqe"), 10, 64)
	width, err3 := strconv.Atoi(params.Get("w"))
	if err1 != nil || err2 != nil || err3 != nil {
		return stmt, 0, http.StatusBadRequest, fmt.Errorf("tqs, tqe and w must be integers")
	}
	height = 400
	if hs := params.Get("h"); hs != "" {
		if height, err = strconv.Atoi(hs); err != nil || height <= 0 {
			return stmt, 0, http.StatusBadRequest, fmt.Errorf("bad h parameter")
		}
	}
	if width > maxRenderWidth || height > maxRenderHeight {
		return stmt, 0, http.StatusBadRequest, fmt.Errorf("w and h may be at most %d and %d", maxRenderWidth, maxRenderHeight)
	}
	specText := params.Get("repr")
	if specText == "" {
		specText = "m4"
	}
	if ratio := params.Get("ratio"); ratio != "" {
		if !strings.EqualFold(specText, "minmaxlttb") {
			return stmt, 0, http.StatusBadRequest, fmt.Errorf("ratio only applies to repr=minmaxlttb")
		}
		specText += ":" + ratio
	}
	spec, err := reprops.ParseSpec(specText)
	if err != nil {
		return stmt, 0, http.StatusBadRequest, err
	}
	stmt.Query = m4.Query{Tqs: tqs, Tqe: tqe, W: width}
	stmt.Represent = &spec
	stmt.Trace = traced(params)
	if err := stmt.Query.Validate(); err != nil {
		return stmt, 0, http.StatusBadRequest, err
	}
	if prefix, ok := strings.CutSuffix(seriesParam, "*"); ok {
		if strings.Contains(prefix, ",") {
			return stmt, 0, http.StatusBadRequest, fmt.Errorf("a series wildcard cannot be combined with a list")
		}
		stmt.Wildcard, stmt.WildcardPrefix = true, prefix
		return stmt, height, 0, nil
	}
	seen := map[string]bool{}
	for _, id := range strings.Split(seriesParam, ",") {
		if id == "" || seen[id] {
			continue
		}
		if !h.engine.HasSeries(id) {
			return stmt, 0, http.StatusNotFound, fmt.Errorf("series %q not found", id)
		}
		seen[id] = true
		stmt.Series = append(stmt.Series, id)
	}
	if len(stmt.Series) == 0 {
		return stmt, 0, http.StatusNotFound, fmt.Errorf("no series match %q", seriesParam)
	}
	return stmt, height, 0, nil
}

// render draws a two-color PNG line chart over a time range. Parameters:
// series (one id, a comma-separated list, or a prefix wildcard like
// "root.*" — multiple series overlay on one canvas with a shared
// viewport), tqs, tqe, w (pixel columns = M4 spans), h (pixel rows,
// default 400), repr (representation operator: m4 — the default —, minmax,
// lttb or minmaxlttb), and ratio (MinMaxLTTB preselection ratio, 2..64).
// When nothing matches the request answers 404, and an execution error no
// status is mapped to answers 500. When the result is partial — unreadable
// chunks skipped at snapshot time, or the operator substituted FP for a
// representation point lost to a mid-query chunk failure — the image still
// renders, the response carries an X-M4-Partial header counting the
// warnings, and render_partial_total is incremented.
func (h *Handler) render(w http.ResponseWriter, r *http.Request) {
	ev := &obs.Event{When: time.Now(), Endpoint: "/render", RequestID: w.Header().Get("X-Request-ID")}
	defer h.finishEvent(w, ev)
	params := r.URL.Query()
	ev.Statement = "series=" + params.Get("series") + " tqs=" + params.Get("tqs") +
		" tqe=" + params.Get("tqe") + " w=" + params.Get("w") + " h=" + params.Get("h")
	if rp := params.Get("repr"); rp != "" {
		ev.Statement += " repr=" + rp
	}
	stmt, height, code, err := h.renderStatement(params)
	if err != nil {
		ev.Error = err.Error()
		httpError(w, code, err)
		return
	}
	h.serve(w, r, ev, stmt, http.StatusInternalServerError, func(w http.ResponseWriter, out *m4ql.Outcome) {
		if len(out.Outputs) == 0 {
			httpError(w, http.StatusNotFound, fmt.Errorf("no series match %q", params.Get("series")))
			return
		}
		reduced := make([]series.Series, len(out.Outputs))
		for i, o := range out.Outputs {
			reduced[i] = o.Points
		}
		q := stmt.Query
		vp := viz.ViewportForAll(reduced, q.Tqs, q.Tqe)
		if math.IsInf(vp.VMin, 0) || math.IsInf(vp.VMax, 0) || math.IsNaN(vp.VMin) || math.IsNaN(vp.VMax) {
			// No axis scales to a non-finite value: refuse, as /query
			// refuses to encode one, instead of drawing a blank chart.
			err := nonFiniteSeries(out, q)
			ev.Error = err.Error()
			writeMappedError(w, http.StatusInternalServerError, "unencodable", err)
			return
		}
		canvas := viz.NewCanvas(q.W, height)
		for _, s := range reduced {
			viz.RasterizeOnto(canvas, s, vp)
		}
		if out.Partial {
			w.Header().Set("X-M4-Partial", strconv.Itoa(len(out.Warnings)))
			h.renderPartial.Inc()
		}
		w.Header().Set("Content-Type", "image/png")
		if err := canvas.WritePNG(w); err != nil {
			obs.Logger(r.Context()).Warn("write png", "err", err)
		}
		canvas.Release()
	})
}

// nonFiniteSeries names the first series, in output order, whose points in
// the query's range hold a value that is not finite.
func nonFiniteSeries(out *m4ql.Outcome, q m4.Query) error {
	for _, o := range out.Outputs {
		for _, p := range o.Points {
			if q.Range().Contains(p.T) && (math.IsInf(p.V, 0) || math.IsNaN(p.V)) {
				return fmt.Errorf("series %q holds %v at t=%d, which no chart can scale to", o.SeriesID, p.V, p.T)
			}
		}
	}
	return fmt.Errorf("a rendered value is not finite")
}
