package server

import (
	"fmt"
	"html/template"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"m4lsm/internal/obs/history"
)

// dashboardWindow is the default time window a chart covers.
const dashboardWindow = 15 * time.Minute

// dashChart is one chart definition: a title plus the system series drawn
// on it (several series overlay on one canvas with a shared viewport).
type dashChart struct {
	Title  string
	Series []string
}

// dashboardCharts is the built-in chart set — the node's vital signs, every
// one read back from root.sys.* history through the M4 query path. The
// sampler's naming contract (history.SeriesName) pins the ids.
func dashboardCharts() []dashChart {
	sys := func(metric string, labels ...string) string {
		return history.SeriesName(metric, labels)
	}
	qh := sys("http_request_seconds", "endpoint", "/query")
	return []dashChart{
		{Title: "Query+render QPS", Series: []string{sys("derived.qps")}},
		{Title: "/query latency p50 / p95 / p99 (s)",
			Series: []string{qh + ".p50", qh + ".p95", qh + ".p99"}},
		{Title: "WAL bytes", Series: []string{sys("lsm_wal_bytes")}},
		{Title: "Memtable points", Series: []string{sys("lsm_memtable_points")}},
		{Title: "Points written (cumulative)", Series: []string{sys("lsm_points_written_total")}},
		// The two sources of 429s: the query gate and /write's ingest queue.
		{Title: "Shed requests / 429s (cumulative)", Series: []string{sys("http_shed_total"), sys("lsm_ingest_backpressure_total")}},
		{Title: "Scrub chunks checked (cumulative)", Series: []string{sys("scrub_chunks_checked_total")}},
		{Title: "Pyramid cells", Series: []string{sys("lsm_pyramid_cells")}},
	}
}

var dashboardTemplate = template.Must(template.New("dashboard").Parse(`<!DOCTYPE html>
<html>
<head>
<title>m4lsm dashboard</title>
<meta http-equiv="refresh" content="{{.Refresh}}">
<style>
body { font-family: sans-serif; margin: 2rem; color: #222; background: #fafafa; }
h1 { font-size: 1.3rem; }
.grid { display: flex; flex-wrap: wrap; gap: 1rem; }
.chart { background: #fff; border: 1px solid #ccc; padding: 8px 12px; }
.chart h2 { font-size: 0.85rem; margin: 0 0 6px; font-weight: 600; }
.chart .q { font-size: 0.7rem; color: #888; }
.empty { color: #888; font-size: 0.8rem; padding: 2rem 1rem; }
img { display: block; }
a { color: #06c; }
</style>
</head>
<body>
<h1>m4lsm — self-observability dashboard</h1>
<p>{{.SysSeries}} system series under <code>root.sys.*</code>, sampled every
{{.Interval}} into the engine itself; every chart below is an M4 render of
that history over the last {{.Window}} (<code>?window=1h</code> to widen).
{{if not .SamplerOn}}<strong>The self-metrics sampler is off</strong> —
start the server with <code>-self-metrics-interval 1s</code>.{{end}}</p>
<div class="grid">
{{range .Charts}}
<div class="chart">
  <h2>{{.Title}}</h2>
  {{if .URL}}<img src="{{.URL}}" width="{{$.W}}" height="{{$.H}}" alt="{{.Title}}">
  <div class="q"><a href="{{.QueryURL}}">m4 json</a></div>
  {{else}}<div class="empty">no samples yet</div>{{end}}
</div>
{{end}}
</div>
<p>Related: <a href="/debug/events">/debug/events</a> (wide query events) ·
<a href="/debug/slowlog">/debug/slowlog</a> · <a href="/varz">/varz</a> ·
<a href="/metrics">/metrics</a> · <a href="/">series browser</a></p>
</body>
</html>
`))

type dashRow struct {
	Title    string
	URL      template.URL
	QueryURL template.URL
}

// dashboard serves the self-observability page: each chart is an <img>
// pointing at /render over root.sys.* series, so the pixels themselves come
// out of the paper's M4 operator reading the engine's own metric history.
// Charts whose series have no samples yet render a placeholder instead of a
// 404. ?window=30m adjusts the time range, ?w/?h the chart size.
func (h *Handler) dashboard(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	window := dashboardWindow
	if v := params.Get("window"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad window %q", v))
			return
		}
		window = d
	}
	cw, ch := 420, 120
	if v := params.Get("w"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 && n <= 4096 {
			cw = n
		}
	}
	if v := params.Get("h"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 && n <= 2048 {
			ch = n
		}
	}
	now := time.Now()
	tqe := now.UnixMilli() + 1
	tqs := tqe - window.Milliseconds()

	sysSeries := 0
	for _, id := range h.engine.SeriesIDs() {
		if strings.HasPrefix(id, history.Prefix) {
			sysSeries++
		}
	}

	var rows []dashRow
	for _, c := range dashboardCharts() {
		// Keep only the series that exist so a missing one (metric not yet
		// registered) does not 404 the whole chart.
		var have []string
		for _, id := range c.Series {
			if h.engine.HasSeries(id) {
				have = append(have, id)
			}
		}
		row := dashRow{Title: c.Title}
		if len(have) > 0 {
			list := strings.Join(have, ",")
			row.URL = template.URL(fmt.Sprintf("/render?series=%s&tqs=%d&tqe=%d&w=%d&h=%d",
				url.QueryEscape(list), tqs, tqe, cw, ch))
			q := fmt.Sprintf("SELECT M4(*) FROM %s WHERE time >= %d AND time < %d GROUP BY SPANS(%d)",
				list, tqs, tqe, cw)
			row.QueryURL = template.URL("/query?q=" + url.QueryEscape(q))
		}
		rows = append(rows, row)
	}

	interval := "—"
	if h.sampler != nil {
		interval = h.sampler.Interval().String()
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	err := dashboardTemplate.Execute(w, map[string]interface{}{
		"Charts":    rows,
		"W":         cw,
		"H":         ch,
		"Window":    window.String(),
		"Refresh":   10,
		"SysSeries": sysSeries,
		"SamplerOn": h.sampler != nil,
		"Interval":  interval,
	})
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
	}
}
