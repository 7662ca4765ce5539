package server

import (
	"context"
	"fmt"
	"html/template"
	"net/http"

	"m4lsm/internal/lsm"
	"m4lsm/internal/m4"
	"m4lsm/internal/m4ql"
)

// uiTemplate is the built-in single-page chart browser: pick a series, get
// the M4-rendered PNG from /render and the tabular result from /query.
var uiTemplate = template.Must(template.New("ui").Parse(`<!DOCTYPE html>
<html>
<head>
<title>m4lsm</title>
<style>
body { font-family: sans-serif; margin: 2rem; color: #222; }
table { border-collapse: collapse; }
td, th { padding: 2px 8px; border: 1px solid #ccc; font-size: 13px; }
img { border: 1px solid #888; margin-top: 1rem; }
code { background: #f2f2f2; padding: 1px 4px; }
</style>
</head>
<body>
<h1>m4lsm — M4 visualization queries</h1>
<p>{{len .Series}} series stored. Charts are rendered by the merge-free
M4-LSM operator at one time span per pixel column (error-free two-color
line charts).</p>
<table>
<tr><th>series</th><th>time range (ms)</th><th>chart</th></tr>
{{range .Series}}
<tr>
  <td><code>{{.ID}}</code></td>
  <td>{{.Start}} – {{.End}}</td>
  <td><a href="/render?series={{.ID}}&tqs={{.Start}}&tqe={{.End}}&w=800&h=300">render</a>
      · <a href="/query?q={{.Query}}">m4 json</a></td>
</tr>
{{end}}
</table>
<p>API: <code>/series</code>, <code>/query?q=&lt;m4ql&gt;</code>,
<code>/render?series=&amp;tqs=&amp;tqe=&amp;w=&amp;h=</code>,
<code>/healthz</code> · <a href="/dashboard">self-observability dashboard</a></p>
</body>
</html>
`))

type uiSeries struct {
	ID    string
	Start int64
	End   int64
	Query string
}

// ui serves the chart browser at /.
func (h *Handler) ui(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	rows, err := listSeries(r.Context(), h.engine, m4ql.MaxSpanOutputs)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := uiTemplate.Execute(w, struct{ Series []uiSeries }{rows}); err != nil {
		httpError(w, http.StatusInternalServerError, err)
	}
}

// listSeries lists every stored series with its range, its first and last
// live point: one M4 span over (nearly) all of time, read like any other
// statement. The window is ±2^61 so its width still fits an int64. Each
// statement reads at most batch series, so with batch at most
// m4ql.MaxSpanOutputs the listing stays under the span bound however many
// series the store holds.
func listSeries(ctx context.Context, e *lsm.Engine, batch int) ([]uiSeries, error) {
	ids := e.SeriesIDs()
	rows := make([]uiSeries, 0, len(ids))
	for lo := 0; lo < len(ids); lo += batch {
		outs, err := m4ql.Read(ctx, e, m4ql.Statement{Series: ids[lo:min(lo+batch, len(ids))],
			Query: m4.Query{Tqs: -(1 << 61), Tqe: 1 << 61, W: 1}})
		if err != nil {
			return nil, err
		}
		for _, o := range outs {
			start, end := int64(0), int64(1)
			if a := o.Aggregates[0]; !a.Empty {
				start, end = a.First.T, a.Last.T+1
			}
			rows = append(rows, uiSeries{ID: o.SeriesID, Start: start, End: end, Query: fmt.Sprintf(
				"SELECT M4(*) FROM %s WHERE time >= %d AND time < %d GROUP BY SPANS(100)", o.SeriesID, start, end)})
		}
	}
	return rows, nil
}
