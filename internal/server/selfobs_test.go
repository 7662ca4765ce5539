package server

import (
	"encoding/json"
	"fmt"
	"html"
	"image"
	"image/png"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"m4lsm/internal/lsm"
	"m4lsm/internal/obs"
	"m4lsm/internal/series"
)

// newSelfObsServer builds a server whose sampler exists but does not tick on
// its own (SelfMetricsInterval < 0), so tests drive SampleOnce with
// controlled timestamps.
func newSelfObsServer(t *testing.T, cfg Config) (*httptest.Server, *Handler) {
	t.Helper()
	cfg.SelfMetricsInterval = -1
	e, err := lsm.Open(lsm.Options{Dir: t.TempDir(), Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		e.Write("root.s1", series.Point{T: int64(i * 10), V: float64((i * 7) % 50)})
	}
	e.Flush()
	h := NewWith(e, cfg)
	srv := httptest.NewServer(h)
	t.Cleanup(func() {
		srv.Close()
		h.Close()
		e.Close()
	})
	return srv, h
}

// traffic issues a few real /query and /render requests so the registry has
// request metrics worth sampling.
func traffic(t *testing.T, base string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		q := "SELECT M4(*) FROM root.s1 WHERE time >= 0 AND time < 5000 GROUP BY SPANS(5) USING LSM"
		if code := getJSON(t, base+"/query?q="+strings.ReplaceAll(q, " ", "+"), nil); code != 200 {
			t.Fatalf("query status %d", code)
		}
		resp, err := http.Get(base + "/render?series=root.s1&tqs=0&tqe=5000&w=50&h=20")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("render status %d", resp.StatusCode)
		}
	}
}

var imgSrcRe = regexp.MustCompile(`<img src="([^"]+)"`)

func TestDashboardRendersChartsThroughM4(t *testing.T) {
	srv, h := newSelfObsServer(t, Config{})
	traffic(t, srv.URL, 3)

	// Several sampler ticks at distinct recent timestamps, so charts have
	// line segments inside the dashboard's 15m window.
	now := time.Now()
	for i := 4; i >= 0; i-- {
		if _, err := h.sampler.SampleOnce(now.Add(-time.Duration(i) * time.Second)); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get(srv.URL + "/dashboard")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("dashboard status %d: %s", resp.StatusCode, page)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("content type %q", ct)
	}

	matches := imgSrcRe.FindAllStringSubmatch(string(page), -1)
	if len(matches) < 6 {
		t.Fatalf("dashboard has %d charts, want >= 6:\n%s", len(matches), page)
	}
	// A 429 comes from the query gate or from /write's ingest queue: the
	// shed chart draws both sources.
	_, shedChart, _ := strings.Cut(string(page), "Shed requests / 429s")
	if m := imgSrcRe.FindStringSubmatch(shedChart); m == nil {
		t.Error("the shed chart has no image")
	} else if src, err := url.Parse(html.UnescapeString(m[1])); err != nil ||
		src.Query().Get("series") != "root.sys.http_shed_total,root.sys.lsm_ingest_backpressure_total" {
		t.Errorf("the shed chart draws %q, want the query gate's and the ingest queue's 429s", m[1])
	}
	lit := 0
	for _, m := range matches {
		src := html.UnescapeString(m[1])
		if !strings.HasPrefix(src, "/render?series=root.sys.") {
			t.Fatalf("chart src %q does not go through /render over root.sys.*", src)
		}
		r2, err := http.Get(srv.URL + src)
		if err != nil {
			t.Fatal(err)
		}
		img, derr := png.Decode(r2.Body)
		r2.Body.Close()
		if r2.StatusCode != 200 {
			t.Fatalf("chart %s: status %d", src, r2.StatusCode)
		}
		if derr != nil {
			t.Fatalf("chart %s: %v", src, derr)
		}
		if img.Bounds().Dx() == 0 || img.Bounds().Dy() == 0 {
			t.Fatalf("chart %s: empty image", src)
		}
		if countLit(img) > 0 {
			lit++
		}
	}
	if lit == 0 {
		t.Error("no chart drew a single data pixel")
	}
}

// countLit counts pixels that differ from the canvas background (white).
func countLit(img image.Image) int {
	n := 0
	b := img.Bounds()
	for y := b.Min.Y; y < b.Max.Y; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			r, g, bl, _ := img.At(x, y).RGBA()
			if r != 0xffff || g != 0xffff || bl != 0xffff {
				n++
			}
		}
	}
	return n
}

func TestDashboardWindowValidation(t *testing.T) {
	srv, _ := newSelfObsServer(t, Config{})
	if code := getJSON(t, srv.URL+"/dashboard?window=bogus", nil); code != 400 {
		t.Errorf("bad window: status %d, want 400", code)
	}
	if code := getJSON(t, srv.URL+"/dashboard?window=-5m", nil); code != 400 {
		t.Errorf("negative window: status %d, want 400", code)
	}
}

func TestSysSeriesQueryableViaM4QL(t *testing.T) {
	srv, h := newSelfObsServer(t, Config{})
	traffic(t, srv.URL, 2)
	base := time.Now().Add(-10 * time.Second)
	for i := 0; i < 5; i++ {
		if _, err := h.sampler.SampleOnce(base.Add(time.Duration(i) * time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	tqs := base.UnixMilli()
	tqe := base.Add(10 * time.Second).UnixMilli()

	// A direct series id and the root.sys.* prefix wildcard both answer
	// (the wildcard form returns per-series row blocks).
	for _, from := range []string{"root.sys.selfmetrics_samples_total", "root.sys.*"} {
		q := fmt.Sprintf("SELECT M4(*) FROM %s WHERE time >= %d AND time < %d GROUP BY SPANS(4)", from, tqs, tqe)
		var res struct {
			Rows   [][]float64 `json:"rows"`
			Series []struct {
				SeriesID string      `json:"seriesId"`
				Rows     [][]float64 `json:"rows"`
			} `json:"series"`
		}
		code := getJSON(t, srv.URL+"/query?q="+strings.ReplaceAll(q, " ", "+"), &res)
		if code != 200 {
			t.Fatalf("%s: status %d", from, code)
		}
		rows := len(res.Rows)
		for _, sr := range res.Series {
			rows += len(sr.Rows)
		}
		if rows == 0 {
			t.Errorf("%s: no rows", from)
		}
		if from == "root.sys.*" && len(res.Series) < 6 {
			t.Errorf("wildcard matched %d sys series, want >= 6", len(res.Series))
		}
	}

	// The metric history round-trips: the sampled counter is monotonically
	// non-decreasing in the stored points.
	q := fmt.Sprintf("SELECT M4(*) FROM root.sys.selfmetrics_samples_total WHERE time >= %d AND time < %d GROUP BY SPANS(1)", tqs, tqe)
	var res struct {
		Columns []string    `json:"columns"`
		Rows    [][]float64 `json:"rows"`
	}
	if code := getJSON(t, srv.URL+"/query?q="+strings.ReplaceAll(q, " ", "+"), &res); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestDebugEventsEndpoint(t *testing.T) {
	srv, h := newSelfObsServer(t, Config{})
	q := "SELECT M4(*) FROM root.s1 WHERE time >= 0 AND time < 5000 GROUP BY SPANS(5) USING LSM"
	resp, err := http.Get(srv.URL + "/query?q=" + strings.ReplaceAll(q, " ", "+") + "&trace=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	reqID := resp.Header.Get("X-Request-ID")
	resp.Body.Close()
	if reqID == "" {
		t.Fatal("no request id header")
	}
	// Bad statement and render events too, and a traced render.
	getJSON(t, srv.URL+"/query?q=BOGUS", nil)
	traffic(t, srv.URL, 1)
	resp, err = http.Get(srv.URL + "/render?series=root.s1&tqs=0&tqe=5000&w=50&h=20&trace=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	renderID := resp.Header.Get("X-Request-ID")
	resp.Body.Close()
	waitRecordedSettles(t, h, 5) // traced query + bogus + one traffic query/render pair + traced render; /debug fetches are not evented

	var body struct {
		Recorded int64       `json:"recorded"`
		Written  int64       `json:"written"`
		Dropped  int64       `json:"dropped"`
		Events   []obs.Event `json:"events"`
	}
	if code := getJSON(t, srv.URL+"/debug/events", &body); code != 200 {
		t.Fatalf("status %d", code)
	}
	if body.Recorded != 5 || body.Dropped != 0 {
		t.Errorf("recorded=%d dropped=%d, want 5/0", body.Recorded, body.Dropped)
	}
	byID := map[string]obs.Event{}
	var badStatement obs.Event
	for _, e := range body.Events {
		byID[e.RequestID] = e
		if e.Status == 400 {
			badStatement = e
		}
	}
	ev, ok := byID[reqID]
	if !ok {
		t.Fatalf("no event for request %s in %+v", reqID, body.Events)
	}
	if ev.Endpoint != "/query" || ev.Status != 200 || ev.Statement == "" ||
		ev.Operator == "" || ev.ElapsedNs <= 0 {
		t.Errorf("query event incomplete: %+v", ev)
	}
	if ev.PointsDecoded == 0 {
		t.Errorf("query event has no budget spend: %+v", ev)
	}
	if ev.TraceID == "" || len(ev.Phases) == 0 {
		t.Errorf("traced query event missing phase timings: %+v", ev)
	}
	if badStatement.Error == "" {
		t.Errorf("400 event carries no error: %+v", badStatement)
	}
	if rev := byID[renderID]; rev.Endpoint != "/render" || rev.Status != 200 || rev.TraceID == "" || len(rev.Phases) == 0 {
		t.Errorf("traced render event missing its trace: %+v", rev)
	}

	// The slow-query log links to the same request id.
	var slow struct {
		Entries []obs.Event `json:"entries"`
	}
	getJSON(t, srv.URL+"/debug/slowlog", &slow)
	for _, se := range slow.Entries {
		if se.RequestID != "" {
			if _, ok := byID[se.RequestID]; !ok {
				t.Errorf("slowlog request %s has no wide event", se.RequestID)
			}
		}
	}
}

// waitRecordedSettles polls until the event log has recorded want events
// (the final Record runs in a deferred handler after the response body is
// flushed, so the client can win the race) and its writer goroutine has
// moved every one of them into the ring /debug/events and Recent serve.
func waitRecordedSettles(t *testing.T, h *Handler, want int64) {
	t.Helper()
	ev := h.events
	deadline := time.Now().Add(5 * time.Second)
	for ev.Recorded() < want || ev.Written()+ev.Dropped() < ev.Recorded() {
		if time.Now().After(deadline) {
			t.Fatalf("event log stuck at %d recorded / %d written, want %d", ev.Recorded(), ev.Written(), want)
		}
		runtime.Gosched()
	}
}

// TestExactlyOneEventPerRequest hammers /query and /render concurrently —
// including shed 429s from a zero-queue gate — and requires the event count
// to equal the request count exactly.
func TestExactlyOneEventPerRequest(t *testing.T) {
	srv, h := newSelfObsServer(t, Config{
		QuerySlots:      2,
		QueryQueueDepth: 1,
		QueryQueueWait:  -1, // full queue sheds immediately
	})
	const clients, per = 8, 10
	var wg sync.WaitGroup
	var mu sync.Mutex
	status := map[int]int{}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				var url string
				if (c+i)%2 == 0 {
					q := "SELECT M4(*) FROM root.s1 WHERE time >= 0 AND time < 5000 GROUP BY SPANS(50) USING LSM"
					url = srv.URL + "/query?q=" + strings.ReplaceAll(q, " ", "+")
				} else {
					url = srv.URL + "/render?series=root.s1&tqs=0&tqe=5000&w=100&h=40"
				}
				resp, err := http.Get(url)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				mu.Lock()
				status[resp.StatusCode]++
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	const total = clients * per
	waitRecordedSettles(t, h, total)
	if got := h.events.Recorded(); got != total {
		t.Fatalf("recorded %d events for %d requests (status mix %v)", got, total, status)
	}
	if h.events.Dropped() != 0 {
		t.Errorf("dropped %d events with default buffer", h.events.Dropped())
	}
	if status[200] == 0 {
		t.Errorf("no request succeeded: %v", status)
	}

	// Every response status appears in the events with matching counts.
	recent := h.events.Recent()
	evStatus := map[int]int{}
	for _, e := range recent {
		evStatus[e.Status]++
	}
	for code, n := range status {
		if evStatus[code] != n {
			t.Errorf("status %d: %d responses but %d events (responses %v, events %v)",
				code, n, evStatus[code], status, evStatus)
		}
	}
	if status[429] > 0 {
		var shed *obs.Event
		for i := range recent {
			if recent[i].Status == 429 {
				shed = &recent[i]
				break
			}
		}
		if shed == nil || shed.Error == "" {
			t.Errorf("shed event missing error: %+v", shed)
		}
	}
}

func TestSlowlogQuantiles(t *testing.T) {
	srv, _ := newSelfObsServer(t, Config{SlowQueryThreshold: time.Nanosecond})
	traffic(t, srv.URL, 3)
	var body struct {
		LatencySeconds map[string]float64 `json:"latencySeconds"`
	}
	if code := getJSON(t, srv.URL+"/debug/slowlog", &body); code != 200 {
		t.Fatalf("status %d", code)
	}
	p50, p95, p99 := body.LatencySeconds["p50"], body.LatencySeconds["p95"], body.LatencySeconds["p99"]
	if p50 <= 0 || p95 < p50 || p99 < p95 {
		t.Errorf("latencySeconds not monotone: p50=%g p95=%g p99=%g", p50, p95, p99)
	}
}

func TestVarzHistogramQuantiles(t *testing.T) {
	srv, _ := newSelfObsServer(t, Config{})
	traffic(t, srv.URL, 2)
	var varz map[string]interface{}
	if code := getJSON(t, srv.URL+"/varz", &varz); code != 200 {
		t.Fatalf("status %d", code)
	}
	h, ok := varz[`http_request_seconds{endpoint="/query"}`].(map[string]interface{})
	if !ok {
		t.Fatalf("varz missing /query histogram")
	}
	for _, q := range []string{"p50", "p95", "p99"} {
		v, ok := h[q].(float64)
		if !ok || v <= 0 {
			t.Errorf("varz histogram %s = %v", q, h[q])
		}
	}
}

func TestBuildInfoExposed(t *testing.T) {
	srv, _ := newSelfObsServer(t, Config{})
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "build_info{commit=") {
		t.Errorf("metrics missing build_info:\n%s", body)
	}
	var health struct {
		Version  string `json:"version"`
		Revision string `json:"revision"`
	}
	if code := getJSON(t, srv.URL+"/healthz", &health); code != 200 {
		t.Fatalf("healthz status %d", code)
	}
	if health.Version == "" || health.Revision == "" {
		t.Errorf("healthz build identity empty: %+v", health)
	}
}

func TestEventLogFileWiring(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/events.jsonl"
	e, err := lsm.Open(lsm.Options{Dir: dir + "/db", Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		e.Write("root.s1", series.Point{T: int64(i * 10), V: float64(i)})
	}
	e.Flush()
	h := NewWith(e, Config{EventLogPath: path})
	srv := httptest.NewServer(h)
	q := "SELECT M4(*) FROM root.s1 WHERE time >= 0 AND time < 1000 GROUP BY SPANS(2)"
	if code := getJSON(t, srv.URL+"/query?q="+strings.ReplaceAll(q, " ", "+"), nil); code != 200 {
		t.Fatalf("query status %d", code)
	}
	waitRecordedSettles(t, h, 1)
	srv.Close()
	if err := h.Close(); err != nil { // drains the writer
		t.Fatal(err)
	}
	e.Close()

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var ev obs.Event
	if err := json.NewDecoder(f).Decode(&ev); err != nil {
		t.Fatalf("decode events.jsonl: %v", err)
	}
	if ev.Endpoint != "/query" || ev.Status != 200 {
		t.Errorf("file event = %+v", ev)
	}
}

func TestHandlerCloseStopsGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		e, err := lsm.Open(lsm.Options{Dir: t.TempDir(), Metrics: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		h := NewWith(e, Config{SelfMetricsInterval: time.Millisecond})
		time.Sleep(3 * time.Millisecond) // a few live ticks
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
		if err := h.Close(); err != nil { // idempotent
			t.Fatal(err)
		}
		e.Close()
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
	}
}
