package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"image/png"
	"io"
	"math/big"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"m4lsm/internal/lsm"
	"m4lsm/internal/m4"
	"m4lsm/internal/m4ql"
	"m4lsm/internal/mergeread"
	"m4lsm/internal/obs"
	"m4lsm/internal/reprops"
	"m4lsm/internal/series"
	"m4lsm/internal/viz"
)

func newServer(t *testing.T) *httptest.Server {
	t.Helper()
	// A registry on the engine makes /metrics cover the storage layer too,
	// matching how cmd/m4server wires things.
	e, err := lsm.Open(lsm.Options{Dir: t.TempDir(), Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		e.Write("root.s1", series.Point{T: int64(i * 10), V: float64((i * 7) % 50)})
	}
	e.Flush()
	h := NewWith(e, Config{})
	srv := httptest.NewServer(h)
	t.Cleanup(func() {
		srv.Close()
		h.Close()
		e.Close()
	})
	return srv
}

func getJSON(t *testing.T, url string, out interface{}) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestHealth(t *testing.T) {
	srv := newServer(t)
	var body map[string]interface{}
	if code := getJSON(t, srv.URL+"/healthz", &body); code != 200 {
		t.Fatalf("status %d", code)
	}
	if body["status"] != "ok" || body["chunks"].(float64) < 1 {
		t.Errorf("body = %v", body)
	}
}

func TestSeries(t *testing.T) {
	srv := newServer(t)
	var ids []string
	if code := getJSON(t, srv.URL+"/series", &ids); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(ids) != 1 || ids[0] != "root.s1" {
		t.Errorf("ids = %v", ids)
	}
}

func TestQueryGet(t *testing.T) {
	srv := newServer(t)
	q := "SELECT M4(*) FROM root.s1 WHERE time >= 0 AND time < 5000 GROUP BY SPANS(5) USING LSM"
	var res struct {
		Columns []string    `json:"columns"`
		Rows    [][]float64 `json:"rows"`
	}
	code := getJSON(t, srv.URL+"/query?q="+strings.ReplaceAll(q, " ", "+"), &res)
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(res.Rows) != 5 || len(res.Columns) != 9 {
		t.Errorf("res = %+v", res)
	}
}

func TestQueryPost(t *testing.T) {
	srv := newServer(t)
	body, _ := json.Marshal(map[string]string{
		"query": "SELECT M4(*) FROM root.s1 WHERE time >= 0 AND time < 5000 GROUP BY SPANS(2) USING UDF",
	})
	resp, err := http.Post(srv.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var res struct {
		Operator string `json:"operator"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Operator != "UDF" {
		t.Errorf("operator = %s", res.Operator)
	}
}

func TestQueryErrors(t *testing.T) {
	srv := newServer(t)
	if code := getJSON(t, srv.URL+"/query?q=SELECT+garbage", nil); code != 400 {
		t.Errorf("bad query status %d", code)
	}
	if code := getJSON(t, srv.URL+"/query", nil); code != 400 {
		t.Errorf("missing query status %d", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/query", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE status %d", resp.StatusCode)
	}
}

func TestRender(t *testing.T) {
	srv := newServer(t)
	resp, err := http.Get(srv.URL + "/render?series=root.s1&tqs=0&tqe=5000&w=100&h=50")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	img, err := png.Decode(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != 100 || img.Bounds().Dy() != 50 {
		t.Errorf("bounds = %v", img.Bounds())
	}
}

// TestRenderWideWindow: /render over a nanosecond window wider than
// MaxInt64/w puts every point in its Definition 2.3 column: the PNG equals
// viz.Rasterize of the points mapped to columns with math/big.
func TestRenderWideWindow(t *testing.T) {
	e, err := lsm.Open(lsm.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	const tqe, w, h = int64(1_800_000_000_000_000_000), 100, 40
	var full series.Series
	for i := int64(0); i < 300; i++ {
		p := series.Point{T: i*(tqe/300) + i*7_777_777, V: float64(i%23) + float64(i)*1e-6}
		full = append(full, p)
		e.Write("root.ns", p)
	}
	e.Flush()
	h2 := NewWith(e, Config{})
	srv := httptest.NewServer(h2)
	t.Cleanup(func() {
		srv.Close()
		h2.Close()
		e.Close()
	})
	resp, err := http.Get(fmt.Sprintf("%s/render?series=root.ns&tqs=0&tqe=%d&w=%d&h=%d", srv.URL, tqe, w, h))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("status %d, %v", resp.StatusCode, err)
	}
	mapped := make(series.Series, len(full))
	for i, p := range full {
		col := new(big.Int).Mul(big.NewInt(w), big.NewInt(p.T))
		col.Quo(col, big.NewInt(tqe))
		mapped[i] = series.Point{T: col.Int64(), V: p.V}
	}
	vp := viz.ViewportFor(full, 0, tqe)
	vp.Tqs, vp.Tqe = 0, w
	var want bytes.Buffer
	if err := viz.Rasterize(mapped, vp, w, h).WritePNG(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want.Bytes()) {
		t.Fatalf("PNG (%d bytes) differs from the math/big-mapped raster (%d bytes)", len(raw), want.Len())
	}
}

func TestRenderErrors(t *testing.T) {
	srv := newServer(t)
	for _, u := range []string{
		"/render",
		"/render?series=root.s1",
		"/render?series=root.s1&tqs=0&tqe=0&w=10",
		"/render?series=root.s1&tqs=0&tqe=100&w=10&h=-5",
		"/render?series=root.s1&tqs=0&tqe=100&w=10&h=1000000",
		"/render?series=root.s1&tqs=0&tqe=100&w=8193",
		"/query?q=" + url.QueryEscape("SELECT M4(*) FROM root.s1 WHERE time >= 0 AND time < 100 GROUP BY SPANS(1073741824)"),
	} {
		if code := getJSON(t, srv.URL+u, nil); code != 400 {
			t.Errorf("%s: status %d, want 400", u, code)
		}
	}
	// The widest canvas fits 128 series under m4ql.MaxSpanOutputs; a
	// wildcard over 129 asks for more than one statement may.
	var body strings.Builder
	for i := 0; i < 128; i++ {
		fmt.Fprintf(&body, "root.w%d 5 1\n", i)
	}
	resp := postWrite(t, srv.URL, body.String())
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("write: status %d", resp.StatusCode)
	}
	u := "/render?series=root.*&tqs=0&tqe=100&w=8192"
	if code := getJSON(t, srv.URL+u, nil); code != 400 {
		t.Errorf("%s over 129 series: status %d, want 400", u, code)
	}
}

func TestUIPage(t *testing.T) {
	srv := newServer(t)
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	body := new(bytes.Buffer)
	body.ReadFrom(resp.Body)
	got := body.String()
	// The listed range is the series' first and last point, [0, 4991).
	for _, want := range []string{"m4lsm", "root.s1", "/render?series=root.s1&tqs=0&tqe=4991&"} {
		if !strings.Contains(got, want) {
			t.Errorf("ui missing %q", want)
		}
	}
	// Unknown paths under / must 404, not render the UI.
	resp2, err := http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 404 {
		t.Errorf("unknown path status %d", resp2.StatusCode)
	}
	// The listing reads at most m4ql.MaxSpanOutputs series per statement,
	// so no store is too large for it; any batch size lists the same rows.
	e, err := lsm.Open(lsm.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 5; i++ {
		e.Write(fmt.Sprintf("root.u%d", i), series.Point{T: int64(10 * i), V: 1})
	}
	whole, err := listSeries(context.Background(), e, m4ql.MaxSpanOutputs)
	if err != nil || len(whole) != 5 || whole[4] != (uiSeries{ID: "root.u4", Start: 40, End: 41, Query: whole[4].Query}) {
		t.Fatalf("listing: %v, %v", whole, err)
	}
	if batched, err := listSeries(context.Background(), e, 2); err != nil || !reflect.DeepEqual(batched, whole) {
		t.Errorf("listing in batches of 2: %v, %v; want %v", batched, err, whole)
	}
}

// renderOracle draws what /render must answer for ids under the request's
// parameters: each series fully merged (mergeread.Merge), reduced by the
// full-scan reprops.Reduce and rasterized onto one shared canvas — the
// benchmark's oracle rule, here for every series form and representation.
func renderOracle(t *testing.T, e *lsm.Engine, ids []string, params url.Values) []byte {
	t.Helper()
	atoi := func(name string, def int64) int64 {
		v := params.Get(name)
		if v == "" {
			return def
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("oracle: %s=%q", name, v)
		}
		return n
	}
	q := m4.Query{Tqs: atoi("tqs", 0), Tqe: atoi("tqe", 0), W: int(atoi("w", 0))}
	specText := params.Get("repr")
	if specText == "" {
		specText = "m4"
	}
	if r := params.Get("ratio"); r != "" {
		specText += ":" + r
	}
	spec, err := reprops.ParseSpec(specText)
	if err != nil {
		t.Fatal(err)
	}
	reduced := make([]series.Series, len(ids))
	for i, id := range ids {
		snap, err := e.Snapshot(id, q.Range())
		if err != nil {
			t.Fatal(err)
		}
		merged, err := mergeread.Merge(snap, q.Range())
		if err != nil {
			t.Fatal(err)
		}
		if reduced[i], err = reprops.Reduce(spec, q, merged); err != nil {
			t.Fatal(err)
		}
	}
	vp := viz.ViewportForAll(reduced, q.Tqs, q.Tqe)
	canvas := viz.NewCanvas(q.W, int(atoi("h", 400)))
	for _, s := range reduced {
		viz.RasterizeOnto(canvas, s, vp)
	}
	var buf bytes.Buffer
	if err := canvas.WritePNG(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRenderMultiSeries is /render's request matrix over a multi-series
// store: one id, lists (with a duplicate), wildcards (with and without a
// '.' before the '*'), an id the m4ql lexer cannot read, every
// representation, every bad parameter, unknown ids and an empty wildcard.
// Status, X-M4-Error, X-M4-Partial and Content-Type are the endpoint's
// contract; every 200 must be byte-identical to renderOracle's drawing.
func TestRenderMultiSeries(t *testing.T) {
	e, err := lsm.Open(lsm.Options{Dir: t.TempDir(), Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	// Values are tie-free: on a tie Definition 2.1 allows any extremal
	// point, so only distinct values pin the raster to the oracle's.
	for i := 0; i < 200; i++ {
		e.Write("root.a", series.Point{T: int64(i * 10), V: float64(i%17) + float64(i)*1e-6})
		e.Write("root.b", series.Point{T: int64(i * 10), V: float64(100+i%13) + float64(i)*1e-6})
		e.Write("rob.c", series.Point{T: int64(i*10 + 3), V: float64(50+i%7) + float64(i)*1e-6})
	}
	e.Flush()
	// A second flush overlaps the first and overwrites some of it, and a
	// memtable tail stays unflushed: the operator has merging to do.
	for i := 50; i < 120; i++ {
		e.Write("root.a", series.Point{T: int64(i*10 + 5), V: 30 + float64(i)*1e-3})
	}
	for i := 60; i < 70; i++ {
		e.Write("root.b", series.Point{T: int64(i * 10), V: 70 + float64(i)*1e-3})
	}
	e.Flush()
	for i := 200; i < 230; i++ {
		e.Write("root.a", series.Point{T: int64(i * 10), V: float64(i%11) + float64(i)*1e-6})
	}
	h := NewWith(e, Config{})
	srv := httptest.NewServer(h)
	t.Cleanup(func() {
		srv.Close()
		h.Close()
		e.Close()
	})
	// An id m4ql cannot lex unquoted arrives through /write.
	var body strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&body, "dev-1/temp %d %g\n", i*20, float64(i%9)+float64(i)*1e-6)
	}
	if resp := postWrite(t, srv.URL, body.String()); resp.StatusCode != 200 {
		t.Fatalf("write status %d", resp.StatusCode)
	}

	const win = "&tqs=0&tqe=2300&w=80&h=40"
	all := []string{"dev-1/temp", "rob.c", "root.a", "root.b"}
	ab := []string{"root.a", "root.b"}
	cases := []struct {
		query  string
		status int
		ids    []string // a 200's series, in drawing order
	}{
		{"series=root.a" + win, 200, []string{"root.a"}},
		{"series=root.a,root.b" + win, 200, ab},
		{"series=root.a,root.b,root.a" + win, 200, ab},
		{"series=root.b,root.a" + win, 200, []string{"root.b", "root.a"}},
		{"series=root.*" + win, 200, ab},
		{"series=ro*" + win, 200, []string{"rob.c", "root.a", "root.b"}},
		{"series=*" + win, 200, all},
		{"series=dev-1/temp" + win, 200, []string{"dev-1/temp"}},
		{"series=dev-1/temp,root.a" + win, 200, []string{"dev-1/temp", "root.a"}},
		{"series=dev-*" + win, 200, []string{"dev-1/temp"}},
		{"series=root.a&tqs=0&tqe=2300&w=80", 200, []string{"root.a"}}, // default h
		{"series=root.a&tqs=1000&tqe=9000&w=33&h=17", 200, []string{"root.a"}},
		{"series=root.a&tqs=-500&tqe=100&w=8&h=8", 200, []string{"root.a"}},
		{"series=root.a,root.b&repr=m4" + win, 200, ab},
		{"series=root.a,root.b&repr=minmax" + win, 200, ab},
		{"series=root.a,root.b&repr=lttb" + win, 200, ab},
		{"series=root.a,root.b&repr=minmaxlttb" + win, 200, ab},
		{"series=root.*&repr=MinMaxLTTB&ratio=8" + win, 200, ab},
		{"series=dev-1/temp&repr=lttb" + win, 200, []string{"dev-1/temp"}},

		{"", 400, nil},
		{"series=root.a", 400, nil},
		{"series=&tqs=0&tqe=2300&w=80", 400, nil},
		{"series=root.a&tqs=x&tqe=2300&w=80", 400, nil},
		{"series=root.a&tqs=0&tqe=2300", 400, nil},
		{"series=root.a&tqs=0&tqe=2300&w=1.5", 400, nil},
		{"series=root.a&tqs=0&tqe=0&w=10", 400, nil},
		{"series=root.a&tqs=10&tqe=5&w=10", 400, nil},
		{"series=root.a&tqs=0&tqe=2300&w=0", 400, nil},
		{"series=root.a&tqs=0&tqe=2300&w=-3", 400, nil},
		{"series=root.a&tqs=0&tqe=2300&w=80&h=-5", 400, nil},
		{"series=root.a&tqs=0&tqe=2300&w=80&h=0", 400, nil},
		{"series=root.a&tqs=0&tqe=2300&w=80&h=x", 400, nil},
		{"series=root.a&repr=nope" + win, 400, nil},
		{"series=root.a&repr=lttb&ratio=4" + win, 400, nil},
		{"series=root.a&ratio=4" + win, 400, nil},
		{"series=root.a&repr=minmaxlttb&ratio=99" + win, 400, nil},
		{"series=root.a&repr=minmaxlttb&ratio=x" + win, 400, nil},
		{"series=root.a,root.*" + win, 400, nil},
		{"series=nope*&repr=nope" + win, 400, nil},
		{"series=nope&repr=nope" + win, 400, nil},

		{"series=nope" + win, 404, nil},
		{"series=root.a,nope" + win, 404, nil},
		{"series=zzz.*" + win, 404, nil},
		{"series=root.*,root.a" + win, 404, nil},
		{"series=," + win, 404, nil},
		{"series=root.a.*" + win, 404, nil},
	}
	pngs := map[string][]byte{}
	for _, c := range cases {
		u := "/render?" + c.query
		resp, err := http.Get(srv.URL + u)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		wantType := "application/json"
		if c.status == 200 {
			wantType = "image/png"
		}
		if resp.StatusCode != c.status || resp.Header.Get("Content-Type") != wantType ||
			resp.Header.Get("X-M4-Error") != "" || resp.Header.Get("X-M4-Partial") != "" {
			t.Errorf("%s: status %d, Content-Type %q, X-M4-Error %q, X-M4-Partial %q; want %d, %q and no error or partial header (body %.80q)",
				u, resp.StatusCode, resp.Header.Get("Content-Type"), resp.Header.Get("X-M4-Error"),
				resp.Header.Get("X-M4-Partial"), c.status, wantType, raw)
			continue
		}
		if c.status != 200 {
			var msg struct{ Error string }
			if err := json.Unmarshal(raw, &msg); err != nil || msg.Error == "" {
				t.Errorf("%s: error body %q", u, raw)
			}
			continue
		}
		params, _ := url.ParseQuery(c.query)
		if want := renderOracle(t, e, c.ids, params); !bytes.Equal(raw, want) {
			t.Errorf("%s: PNG (%d bytes) differs from the oracle's drawing of %v (%d bytes)", u, len(raw), c.ids, len(want))
		}
		pngs[c.query] = raw
	}
	// The wildcard and the explicit list draw the same overlay, and the
	// overlay is not the single-series chart (the shared viewport spans
	// both bands).
	if !bytes.Equal(pngs["series=root.*"+win], pngs["series=root.a,root.b"+win]) {
		t.Error("wildcard and list renders differ")
	}
	if bytes.Equal(pngs["series=root.*"+win], pngs["series=root.a"+win]) {
		t.Error("overlay render identical to single-series render")
	}
	// Wildcard m4ql through /query.
	var res struct {
		Series []struct {
			SeriesID string      `json:"seriesId"`
			Rows     [][]float64 `json:"rows"`
		} `json:"series"`
	}
	q := "SELECT M4(*) FROM root.* WHERE time >= 0 AND time < 2000 GROUP BY SPANS(4)"
	if code := getJSON(t, srv.URL+"/query?q="+strings.ReplaceAll(q, " ", "+"), &res); code != 200 {
		t.Fatalf("wildcard query status %d", code)
	}
	if len(res.Series) != 2 || res.Series[0].SeriesID != "root.a" || len(res.Series[0].Rows) != 4 {
		t.Fatalf("wildcard query result = %+v", res)
	}
}
