package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"m4lsm/internal/lsm"
	"m4lsm/internal/m4"
	"m4lsm/internal/series"
)

// queryHandler returns a handler over a fresh engine that write fills.
func queryHandler(t *testing.T, write func(e *lsm.Engine) error) *Handler {
	t.Helper()
	e, err := lsm.Open(lsm.Options{Dir: t.TempDir(), DisableWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := write(e); err != nil {
		t.Fatal(err)
	}
	h := NewWith(e, Config{})
	t.Cleanup(func() {
		h.Close()
		e.Close()
	})
	return h
}

// serveQuery runs one /query statement through the handler.
func serveQuery(h *Handler, q string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/query?q="+url.QueryEscape(q), nil))
	return rec
}

// TestQueryTimesExact: /query writes every timestamp as an exact integer.
// Nanosecond-epoch points above 2^53 at odd offsets, where a float64 can
// only hold multiples of 256, come back exactly when decoded with
// UseNumber: each M4 time column and each REPRESENT point time.
func TestQueryTimesExact(t *testing.T) {
	const base = 1_700_000_000_000_000_001
	var data series.Series
	for k := range int64(3000) {
		data = append(data, series.Point{T: base + k*1_000_003, V: float64((k*7919)%1000) + float64(k)/1e4})
	}
	h := queryHandler(t, func(e *lsm.Engine) error {
		if err := e.Write("root.ns", data[:1500]...); err != nil {
			return err
		}
		if err := e.Flush(); err != nil {
			return err
		}
		return e.Write("root.ns", data[1500:]...)
	})
	q := m4.Query{Tqs: base, Tqe: data[len(data)-1].T + 1, W: 37}
	where := fmt.Sprintf(" FROM root.ns WHERE time >= %d AND time < %d GROUP BY SPANS(%d)", q.Tqs, q.Tqe, q.W)
	decode := func(stmt string) [][]json.Number {
		t.Helper()
		rec := serveQuery(h, stmt)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", stmt, rec.Code, rec.Body)
		}
		var res struct {
			Rows [][]json.Number `json:"rows"`
		}
		dec := json.NewDecoder(rec.Body)
		dec.UseNumber()
		if err := dec.Decode(&res); err != nil {
			t.Fatal(err)
		}
		return res.Rows
	}
	exact := func(what string, n json.Number, want int64) {
		t.Helper()
		if n.String() != fmt.Sprint(want) {
			t.Fatalf("%s reads %s, want %d", what, n, want)
		}
	}

	ref, err := m4.ComputeSeries(q, data)
	if err != nil {
		t.Fatal(err)
	}
	rows := decode("SELECT M4(*)" + where)
	if len(rows) != q.W {
		t.Fatalf("%d rows, want %d", len(rows), q.W)
	}
	for _, row := range rows {
		span, err := row[0].Int64()
		if err != nil {
			t.Fatal(err)
		}
		a := ref[span]
		for col, want := range map[int]int64{1: a.First.T, 3: a.Last.T, 5: a.Bottom.T, 7: a.Top.T} {
			exact(fmt.Sprintf("span %d column %d", span, col), row[col], want)
		}
	}

	points := decode("SELECT M4(*)" + where + " REPRESENT m4")
	want := m4.Points(ref)
	if len(points) != len(want) {
		t.Fatalf("REPRESENT m4: %d points, want %d", len(points), len(want))
	}
	for i, p := range points {
		exact(fmt.Sprintf("REPRESENT m4 point %d", i), p[0], want[i].T)
	}
}

// TestQueryNonFiniteIsNotOK: an answer holding a value JSON cannot carry is
// a 500 whose JSON error names the series and the span, never a 200 with
// an empty body. The engine stores ±Inf (it refuses only NaN), and a SUM
// or AVG of large finite values can overflow to it.
func TestQueryNonFiniteIsNotOK(t *testing.T) {
	h := queryHandler(t, func(e *lsm.Engine) error {
		if err := e.Write("root.inf", series.Point{T: 10, V: 1}, series.Point{T: 50, V: math.Inf(1)}); err != nil {
			return err
		}
		return e.Write("root.big", series.Point{T: 10, V: math.MaxFloat64}, series.Point{T: 60, V: math.MaxFloat64})
	})
	cases := []struct{ stmt, series, span string }{
		{"SELECT M4(*) FROM root.inf WHERE time >= 0 AND time < 100 GROUP BY SPANS(4)", `"root.inf"`, "span 2"},
		{"SELECT AVG(v) FROM root.inf WHERE time >= 0 AND time < 100 GROUP BY SPANS(4)", `"root.inf"`, "span 2"},
		{"SELECT M4(*) FROM root.inf WHERE time >= 0 AND time < 100 GROUP BY SPANS(4) REPRESENT minmax", `"root.inf"`, "span 2"},
		{"SELECT SUM(v) FROM root.big WHERE time >= 0 AND time < 100 GROUP BY SPANS(1)", `"root.big"`, "span 0"},
		{"SELECT AVG(v) FROM root.* WHERE time >= 0 AND time < 100 GROUP BY SPANS(1)", `"root.big"`, "span 0"},
	}
	for _, c := range cases {
		rec := serveQuery(h, c.stmt)
		var body struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s: status %d, body %q: %v", c.stmt, rec.Code, rec.Body, err)
		}
		if rec.Code != http.StatusInternalServerError || !strings.Contains(body.Error, c.series) || !strings.Contains(body.Error, c.span) {
			t.Errorf("%s: status %d, error %q; want 500 naming series %s and %s", c.stmt, rec.Code, body.Error, c.series, c.span)
		}
	}
}

// TestRenderNonFiniteIsNotOK: /render never draws a chart from a stored
// ±Inf, which would stretch its value axis to infinity. Like /query it
// answers 500 with X-M4-Error: unencodable, naming the series, for one
// series and for an overlay, on every representation.
func TestRenderNonFiniteIsNotOK(t *testing.T) {
	h := queryHandler(t, func(e *lsm.Engine) error {
		if err := e.Write("root.a", series.Point{T: 10, V: 1}, series.Point{T: 50, V: 2}); err != nil {
			return err
		}
		if err := e.Write("root.pos", series.Point{T: 10, V: 1}, series.Point{T: 50, V: math.Inf(1)}); err != nil {
			return err
		}
		return e.Write("root.neg", series.Point{T: 20, V: math.Inf(-1)}, series.Point{T: 60, V: 3})
	})
	cases := []struct{ params, series string }{
		{"series=root.pos", `"root.pos"`},
		{"series=root.neg", `"root.neg"`},
		{"series=root.neg&repr=lttb", `"root.neg"`},
		{"series=root.pos&repr=minmax", `"root.pos"`},
		{"series=root.a,root.neg", `"root.neg"`},
		{"series=root.*", `"root.neg"`},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/render?tqs=0&tqe=100&w=8&h=4&"+c.params, nil))
		var body struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s: status %d, %s, body is not an error: %v", c.params, rec.Code, rec.Header().Get("Content-Type"), err)
		}
		if rec.Code != http.StatusInternalServerError || rec.Header().Get("X-M4-Error") != "unencodable" || !strings.Contains(body.Error, c.series) {
			t.Errorf("%s: status %d, X-M4-Error %q, error %q; want 500 unencodable naming %s",
				c.params, rec.Code, rec.Header().Get("X-M4-Error"), body.Error, c.series)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/render?tqs=0&tqe=100&w=8&h=4&series=root.a", nil))
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "image/png" {
		t.Errorf("finite series: status %d, %s; want a PNG", rec.Code, rec.Header().Get("Content-Type"))
	}
}
