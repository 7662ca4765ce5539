package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"m4lsm/internal/faultfs"
	"m4lsm/internal/lsm"
	"m4lsm/internal/obs"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
)

const testQuery = "SELECT M4(*) FROM root.s1 WHERE time >= 0 AND time < 5000 GROUP BY SPANS(5) USING LSM"

func urlQuery(q string) string { return strings.ReplaceAll(q, " ", "+") }

func TestHealthEnriched(t *testing.T) {
	srv := newServer(t)
	var body map[string]interface{}
	if code := getJSON(t, srv.URL+"/healthz", &body); code != 200 {
		t.Fatalf("status %d", code)
	}
	if _, ok := body["uptimeSeconds"].(float64); !ok {
		t.Errorf("uptimeSeconds missing: %v", body)
	}
	if gv, _ := body["goVersion"].(string); !strings.HasPrefix(gv, "go") {
		t.Errorf("goVersion = %v", body["goVersion"])
	}
	if g, _ := body["goroutines"].(float64); g < 1 {
		t.Errorf("goroutines = %v", body["goroutines"])
	}
	for _, key := range []string{"version", "revision"} {
		if _, ok := body[key].(string); !ok {
			t.Errorf("%s missing: %v", key, body)
		}
	}
}

// TestHealthDegraded: a quarantined chunk file on disk flips the status
// while the endpoint keeps answering 200 (liveness is not the same as
// being fully healthy).
func TestHealthDegraded(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "000001.seq.tsf.bad"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := lsm.Open(lsm.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	h := NewWith(e, Config{})
	srv := httptest.NewServer(h)
	t.Cleanup(func() { srv.Close(); h.Close(); e.Close() })
	var body map[string]interface{}
	if code := getJSON(t, srv.URL+"/healthz", &body); code != 200 {
		t.Fatalf("status %d", code)
	}
	if body["status"] != "degraded" || body["badFiles"].(float64) != 1 {
		t.Errorf("body = %v", body)
	}
}

// traceResult is the subset of the query result the trace tests inspect.
type traceResult struct {
	Rows  [][]float64 `json:"rows"`
	Trace *struct {
		ID          string `json:"id"`
		ElapsedNs   int64  `json:"elapsedNs"`
		TaskTotalNs int64  `json:"taskTotalNs"`
		Phases      []struct {
			Name string `json:"name"`
			Ns   int64  `json:"ns"`
		} `json:"phases"`
		Tasks []struct {
			Span int    `json:"span"`
			G    string `json:"g"`
			Ns   int64  `json:"ns"`
		} `json:"tasks"`
		Counters map[string]int64 `json:"counters"`
	} `json:"trace"`
}

func TestQueryTraceParam(t *testing.T) {
	srv := newServer(t)
	var res traceResult
	if code := getJSON(t, srv.URL+"/query?trace=1&q="+urlQuery(testQuery), &res); code != 200 {
		t.Fatalf("status %d", code)
	}
	tr := res.Trace
	if tr == nil {
		t.Fatal("no trace with ?trace=1")
	}
	if tr.ID == "" || tr.ElapsedNs <= 0 {
		t.Errorf("trace header: %+v", tr)
	}
	if len(tr.Tasks) != 5*4 {
		t.Errorf("tasks = %d, want 20 (5 spans x 4 functions)", len(tr.Tasks))
	}
	sum := int64(0)
	for _, task := range tr.Tasks {
		sum += task.Ns
	}
	if sum != tr.TaskTotalNs {
		t.Errorf("task sum %d != taskTotalNs %d", sum, tr.TaskTotalNs)
	}
	if len(tr.Phases) == 0 {
		t.Error("no phases")
	}
	if _, ok := tr.Counters["chunksLoaded"]; !ok {
		t.Errorf("counters = %v", tr.Counters)
	}
	// The rollup-pyramid counters ride the same stats delta: cells
	// consulted, spans answered, spans that fell back to span×G.
	for _, key := range []string{"pyramidSpans", "pyramidCells", "pyramidFallbackSpans"} {
		if _, ok := tr.Counters[key]; !ok {
			t.Errorf("trace counters missing %q: %v", key, tr.Counters)
		}
	}
	// Without the parameter the response carries no trace.
	var plain traceResult
	if code := getJSON(t, srv.URL+"/query?q="+urlQuery(testQuery), &plain); code != 200 {
		t.Fatalf("status %d", code)
	}
	if plain.Trace != nil {
		t.Error("trace present without ?trace=1")
	}
}

func TestQueryRequestID(t *testing.T) {
	srv := newServer(t)
	resp, err := http.Get(srv.URL + "/query?q=" + urlQuery(testQuery))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("no X-Request-ID header")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv := newServer(t)
	// Drive the layers the exposition must cover: operator + HTTP via a
	// query, engine counters via the flush that newServer already did.
	if code := getJSON(t, srv.URL+"/query?q="+urlQuery(testQuery), nil); code != 200 {
		t.Fatalf("query status %d", code)
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content-type %q", ct)
	}
	b, _ := io.ReadAll(resp.Body)
	body := string(b)
	for _, want := range []string{
		"# TYPE lsm_flushes_total counter", // engine layer
		"lsm_points_written_total 500",
		"lsm_chunks ",                                          // engine gauge
		`m4_queries_total{op="lsm"} 1`,                         // operator layer
		`m4_query_seconds_count{op="lsm"} 1`,                   // operator histogram
		`http_requests_total{endpoint="/query",class="2xx"} 1`, // HTTP layer
		`http_request_seconds_bucket{endpoint="/query",le="+Inf"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Reads go straight to the chunk files: no cache family is exposed.
	if strings.Contains(body, "cache_") {
		t.Error("metrics expose a chunk-cache family")
	}
}

func TestVarz(t *testing.T) {
	srv := newServer(t)
	if code := getJSON(t, srv.URL+"/query?q="+urlQuery(testQuery), nil); code != 200 {
		t.Fatalf("query status %d", code)
	}
	var vars map[string]interface{}
	if code := getJSON(t, srv.URL+"/varz", &vars); code != 200 {
		t.Fatalf("status %d", code)
	}
	if v, ok := vars["lsm_flushes_total"].(float64); !ok || v != 1 {
		t.Errorf("lsm_flushes_total = %v", vars["lsm_flushes_total"])
	}
	hist, ok := vars[`m4_query_seconds{op="lsm"}`].(map[string]interface{})
	if !ok {
		t.Fatalf("m4_query_seconds missing: have %d keys", len(vars))
	}
	if hist["count"].(float64) != 1 {
		t.Errorf("histogram = %v", hist)
	}
}

// TestSlowlog: /debug/slowlog is the event log's slow tail. With a negative
// threshold every evented request lands in it — /query (served and
// refused), /render and /write alike — as its wide event. With a real
// threshold one slow request outlives 300 later fast ones, which push it
// out of the main tail but not out of its own.
func TestSlowlog(t *testing.T) {
	e, err := lsm.Open(lsm.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		e.Write("root.s1", series.Point{T: int64(i * 10), V: float64(i)})
	}
	e.Flush()
	// Negative threshold records every request.
	h := NewWith(e, Config{SlowQueryThreshold: -1})
	srv := httptest.NewServer(h)
	t.Cleanup(func() { srv.Close(); h.Close(); e.Close() })

	q := "SELECT M4(*) FROM root.s1 WHERE time >= 0 AND time < 1000 GROUP BY SPANS(2)"
	if code := getJSON(t, srv.URL+"/query?q="+urlQuery(q), nil); code != 200 {
		t.Fatalf("query status %d", code)
	}
	if code := getJSON(t, srv.URL+"/query?q=SELECT+garbage", nil); code != 400 {
		t.Fatalf("bad query status %d", code)
	}
	resp, err := http.Get(srv.URL + "/render?series=root.s1&tqs=0&tqe=1000&w=10&h=10")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("render status %d", resp.StatusCode)
	}
	if resp := postWrite(t, srv.URL, "root.s1 2000 1\n"); resp.StatusCode != 200 {
		t.Fatalf("write status %d", resp.StatusCode)
	}
	// The tail is filled by the event writer goroutine.
	waitRecordedSettles(t, h, 4)
	var log struct {
		ThresholdNs int64       `json:"thresholdNs"`
		Entries     []obs.Event `json:"entries"`
	}
	if code := getJSON(t, srv.URL+"/debug/slowlog", &log); code != 200 {
		t.Fatalf("slowlog status %d", code)
	}
	if len(log.Entries) != 4 {
		t.Fatalf("entries = %d, want 4: %+v", len(log.Entries), log.Entries)
	}
	// Newest first: the write, the render, the failed query, the good one.
	if en := log.Entries[0]; en.Endpoint != "/write" || en.Status != 200 || en.PointsWritten != 1 {
		t.Errorf("entry[0] = %+v", en)
	}
	if en := log.Entries[1]; en.Endpoint != "/render" || en.Status != 200 || en.Statement == "" {
		t.Errorf("entry[1] = %+v", en)
	}
	if en := log.Entries[2]; en.Endpoint != "/query" || en.Status != 400 || en.Error == "" {
		t.Errorf("entry[2] = %+v", en)
	}
	if en := log.Entries[3]; en.Status != 200 || en.Statement != q {
		t.Errorf("entry[3] = %+v", en)
	}
	if en := log.Entries[3]; en.RequestID == "" || en.ElapsedNs <= 0 {
		t.Errorf("entry[3] missing request id or elapsed: %+v", en)
	}

	// Every chunk read sleeps 100ms, so a query that loads chunks is slow
	// and one refused at parse time is fast.
	dir := t.TempDir()
	e0, err := lsm.Open(lsm.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		e0.Write("root.s1", series.Point{T: int64(i * 10), V: float64(i)})
	}
	if err := e0.Close(); err != nil {
		t.Fatal(err)
	}
	inj := faultfs.NewInjector(faultfs.Config{Seed: 1, SlowRate: 1, Latency: 100 * time.Millisecond})
	slowEng, err := lsm.Open(lsm.Options{Dir: dir, WrapSource: func(src storage.ChunkSource) storage.ChunkSource {
		return faultfs.Wrap(src, inj)
	}})
	if err != nil {
		t.Fatal(err)
	}
	slowH := NewWith(slowEng, Config{SlowQueryThreshold: 50 * time.Millisecond})
	slowSrv := httptest.NewServer(slowH)
	t.Cleanup(func() { slowSrv.Close(); slowH.Close(); slowEng.Close() })
	resp, err = http.Get(slowSrv.URL + "/query?q=" + urlQuery(q+" USING UDF"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	slowID := resp.Header.Get("X-Request-ID")
	if resp.StatusCode != 200 || slowID == "" {
		t.Fatalf("slow query status %d, request id %q", resp.StatusCode, slowID)
	}
	const fast = 300
	for i := 0; i < fast; i++ {
		if code := getJSON(t, slowSrv.URL+"/query?q=BOGUS", nil); code != 400 {
			t.Fatalf("fast request status %d", code)
		}
	}
	waitRecordedSettles(t, slowH, 1+fast)
	for _, ev := range slowH.events.Recent() {
		if ev.RequestID == slowID {
			t.Fatal("the slow request is still in the main tail; the burst did not wrap it")
		}
	}
	if code := getJSON(t, slowSrv.URL+"/debug/slowlog", &log); code != 200 {
		t.Fatalf("slowlog status %d", code)
	}
	found := false
	for _, en := range log.Entries {
		found = found || (en.RequestID == slowID && en.ElapsedNs >= int64(50*time.Millisecond))
	}
	if !found || log.ThresholdNs != int64(50*time.Millisecond) {
		t.Errorf("slow request %s not in the slow tail (threshold %d): %+v", slowID, log.ThresholdNs, log.Entries)
	}
}

// TestQueryCancelled: a request whose context is already cancelled answers
// 503, the signal that the client went away rather than sent a bad query.
func TestQueryCancelled(t *testing.T) {
	e, err := lsm.Open(lsm.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	for i := 0; i < 100; i++ {
		e.Write("root.s1", series.Point{T: int64(i * 10), V: float64(i)})
	}
	e.Flush()
	h := NewWith(e, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodGet,
		"/query?q="+urlQuery("SELECT M4(*) FROM root.s1 WHERE time >= 0 AND time < 1000 GROUP BY SPANS(2)"), nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req.WithContext(ctx))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rr.Code)
	}
}

// TestRenderPartial: when chunk reads fail mid-render, the chart still
// renders from whatever survived, the response carries X-M4-Partial, and
// render_partial_total counts it.
func TestRenderPartial(t *testing.T) {
	dir := t.TempDir()
	// Build the store with a clean engine so the data lands on disk.
	e0, err := lsm.Open(lsm.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		e0.Write("root.s1", series.Point{T: int64(i * 10), V: float64(i % 50)})
	}
	if err := e0.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen with every chunk read failing: the operator drops all chunks
	// and degrades.
	inj := faultfs.NewInjector(faultfs.Config{Seed: 1, ErrRate: 1})
	e, err := lsm.Open(lsm.Options{
		Dir:     dir,
		Metrics: obs.NewRegistry(),
		WrapSource: func(src storage.ChunkSource) storage.ChunkSource {
			return faultfs.Wrap(src, inj)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := NewWith(e, Config{})
	srv := httptest.NewServer(h)
	t.Cleanup(func() { srv.Close(); h.Close(); e.Close() })

	// One id, then a wildcard over it. The first read quarantines what it
	// failed on, so the second sees a different degradation; both counts
	// are pinned.
	for _, c := range []struct{ u, partial string }{
		{"/render?series=root.s1&tqs=0&tqe=3000&w=50&h=40", "3"},
		{"/render?series=root.*&tqs=0&tqe=3000&w=50&h=40&repr=minmax", "2"},
	} {
		u := c.u
		resp, err := http.Get(srv.URL + u)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d", u, resp.StatusCode)
		}
		if got := resp.Header.Get("X-M4-Partial"); got != c.partial {
			t.Fatalf("%s: X-M4-Partial %q on a degraded render, want %s", u, got, c.partial)
		}
		if ct, xe := resp.Header.Get("Content-Type"), resp.Header.Get("X-M4-Error"); ct != "image/png" || xe != "" {
			t.Errorf("%s: Content-Type %q, X-M4-Error %q", u, ct, xe)
		}
	}
	var vars map[string]interface{}
	if code := getJSON(t, srv.URL+"/varz", &vars); code != 200 {
		t.Fatalf("varz status %d", code)
	}
	if v, _ := vars["render_partial_total"].(float64); v != 2 {
		t.Errorf("render_partial_total = %v", vars["render_partial_total"])
	}
}

// TestStatusClasses: error responses land in their status class counters.
func TestStatusClasses(t *testing.T) {
	srv := newServer(t)
	getJSON(t, srv.URL+"/query?q=SELECT+garbage", nil)              // 400
	getJSON(t, srv.URL+"/render?series=nope&tqs=0&tqe=10&w=2", nil) // 404
	getJSON(t, srv.URL+"/query?q="+urlQuery(testQuery), nil)        // 200
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	body := string(b)
	for _, want := range []string{
		`http_requests_total{endpoint="/query",class="4xx"} 1`,
		`http_requests_total{endpoint="/render",class="4xx"} 1`,
		`http_requests_total{endpoint="/query",class="2xx"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestVarzIsValidJSON guards the exposition against marshalling surprises
// (e.g. histogram NaN sums) by decoding the full document.
func TestVarzIsValidJSON(t *testing.T) {
	srv := newServer(t)
	getJSON(t, srv.URL+"/query?q="+urlQuery(testQuery), nil)
	resp, err := http.Get(srv.URL + "/varz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("varz not valid JSON: %v", err)
	}
	if len(v) == 0 {
		t.Error("varz empty")
	}
}
