package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"m4lsm/internal/lsm"
	"m4lsm/internal/obs"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
)

// blockingSource parks every chunk read on a channel, so a test can pin a
// query in flight for as long as it needs deterministic contention.
type blockingSource struct {
	inner   storage.ChunkSource
	release chan struct{}
}

func (b *blockingSource) ReadChunk(m storage.ChunkMeta) (series.Columns, error) {
	<-b.release
	return b.inner.ReadChunk(m)
}

func (b *blockingSource) ReadTimes(m storage.ChunkMeta) ([]int64, error) {
	<-b.release
	return b.inner.ReadTimes(m)
}

func (b *blockingSource) ReadValues(m storage.ChunkMeta) ([]float64, error) {
	<-b.release
	return b.inner.ReadValues(m)
}

// slowSource delays every chunk read so concurrent queries overlap long
// enough to contend for the admission gate.
type slowSource struct {
	inner storage.ChunkSource
	delay time.Duration
}

func (s *slowSource) ReadChunk(m storage.ChunkMeta) (series.Columns, error) {
	time.Sleep(s.delay)
	return s.inner.ReadChunk(m)
}

func (s *slowSource) ReadTimes(m storage.ChunkMeta) ([]int64, error) {
	time.Sleep(s.delay)
	return s.inner.ReadTimes(m)
}

func (s *slowSource) ReadValues(m storage.ChunkMeta) ([]float64, error) {
	time.Sleep(s.delay)
	return s.inner.ReadValues(m)
}

// newGatedServer opens a many-chunk engine whose chunk sources are wrapped
// by wrap, and serves it with admission control per cfg.
func newGatedServer(t *testing.T, cfg Config, wrap func(storage.ChunkSource) storage.ChunkSource) *httptest.Server {
	t.Helper()
	// The pyramid is off: its flush-time rebuild reads chunks through the
	// wrapped source, and blockingSource would park setup forever.
	e, err := lsm.Open(lsm.Options{Dir: t.TempDir(), Metrics: obs.NewRegistry(), WrapSource: wrap, DisablePyramid: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		e.Write("root.s1", series.Point{T: int64(i * 10), V: float64((i * 7) % 50)})
		if i%25 == 24 {
			e.Flush()
		}
	}
	e.Flush()
	h := NewWith(e, cfg)
	srv := httptest.NewServer(h)
	t.Cleanup(func() {
		srv.Close()
		h.Close()
		e.Close()
	})
	return srv
}

func slowQueryURL(base string) string {
	q := url.Values{}
	q.Set("q", "SELECT M4(*) FROM root.s1 WHERE time >= 0 AND time < 3000 GROUP BY SPANS(5) USING LSM")
	return base + "/query?" + q.Encode()
}

// varzNumber reads one numeric instrument from /varz.
func varzNumber(t *testing.T, base, key string) float64 {
	t.Helper()
	var snap map[string]interface{}
	if code := getJSON(t, base+"/varz", &snap); code != 200 {
		t.Fatalf("/varz status %d", code)
	}
	v, ok := snap[key].(float64)
	if !ok {
		t.Fatalf("/varz missing %q (got %T)", key, snap[key])
	}
	return v
}

// checkNoGoroutineLeak registers a cleanup that fails the test if the
// goroutine count does not settle back to the baseline.
func checkNoGoroutineLeak(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= before {
				return
			}
			runtime.Gosched()
			time.Sleep(5 * time.Millisecond)
		}
		t.Errorf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
	})
}

// TestAdmissionShedDeterministic pins one query in flight against a
// single-slot gate with no queue, then proves the next request is shed
// with 429 + Retry-After while the gauges on /varz tell the same story.
func TestAdmissionShedDeterministic(t *testing.T) {
	checkNoGoroutineLeak(t)
	release := make(chan struct{})
	srv := newGatedServer(t,
		Config{QuerySlots: 1, QueryQueueDepth: 0, QueryQueueWait: -1},
		func(src storage.ChunkSource) storage.ChunkSource {
			return &blockingSource{inner: src, release: release}
		})

	firstDone := make(chan int, 1)
	go func() {
		resp, err := http.Get(slowQueryURL(srv.URL))
		if err != nil {
			firstDone <- -1
			return
		}
		resp.Body.Close()
		firstDone <- resp.StatusCode
	}()

	// Wait until the pinned query holds the only slot.
	deadline := time.Now().Add(5 * time.Second)
	for varzNumber(t, srv.URL, "http_query_inflight") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("first query never acquired the gate")
		}
		time.Sleep(2 * time.Millisecond)
	}

	resp, err := http.Get(slowQueryURL(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second query: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After")
	}
	if kind := resp.Header.Get("X-M4-Error"); kind != "overloaded" {
		t.Errorf("X-M4-Error = %q, want overloaded", kind)
	}
	if shed := varzNumber(t, srv.URL, "http_shed_total"); shed < 1 {
		t.Errorf("http_shed_total = %v after a shed", shed)
	}

	close(release)
	if code := <-firstDone; code != http.StatusOK {
		t.Fatalf("pinned query finished with %d", code)
	}
	for varzNumber(t, srv.URL, "http_query_inflight") != 0 {
		if time.Now().After(deadline) {
			t.Fatal("inflight gauge never drained")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestOverloadTorture fires a burst of concurrent slow queries at a
// single-slot gate with a short queue. Every response must be either 200
// or 429-with-Retry-After — never a 500, a hang, or a dropped connection —
// and afterwards the shed counter matches the observed 429s exactly while
// both gauges drain to zero.
func TestOverloadTorture(t *testing.T) {
	checkNoGoroutineLeak(t)
	srv := newGatedServer(t,
		Config{QuerySlots: 1, QueryQueueDepth: 2, QueryQueueWait: 30 * time.Millisecond},
		func(src storage.ChunkSource) storage.ChunkSource {
			return &slowSource{inner: src, delay: 2 * time.Millisecond}
		})

	const n = 24
	var ok, shed atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(slowQueryURL(srv.URL))
			if err != nil {
				errCh <- err
				return
			}
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				ok.Add(1)
			case http.StatusTooManyRequests:
				if resp.Header.Get("Retry-After") == "" {
					errCh <- fmt.Errorf("429 without Retry-After")
					return
				}
				shed.Add(1)
			default:
				errCh <- fmt.Errorf("unexpected status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if ok.Load() == 0 {
		t.Error("no query survived the burst")
	}
	if got := ok.Load() + shed.Load(); got != n {
		t.Errorf("accounted for %d of %d requests", got, n)
	}
	if counted := varzNumber(t, srv.URL, "http_shed_total"); counted != float64(shed.Load()) {
		t.Errorf("http_shed_total = %v, saw %d 429s", counted, shed.Load())
	}
	deadline := time.Now().Add(2 * time.Second)
	for varzNumber(t, srv.URL, "http_query_inflight") != 0 || varzNumber(t, srv.URL, "http_query_waiting") != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("gauges never drained: inflight=%v waiting=%v",
				varzNumber(t, srv.URL, "http_query_inflight"),
				varzNumber(t, srv.URL, "http_query_waiting"))
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Logf("burst: %d ok, %d shed", ok.Load(), shed.Load())
}

// TestQueryBudgetMapping drives the server-level default budget: a lenient
// /query or /render degrades to 200 + partial, a STRICT query maps to 503
// with the budget-exceeded error kind. The defaults ride the statement,
// not the admission wrapper, so they hold with admission off as well.
func TestQueryBudgetMapping(t *testing.T) {
	for name, cfg := range map[string]Config{
		"admission": {QuerySlots: 4, MaxChunksPerQuery: 1},
		"no-gate":   {MaxChunksPerQuery: 1},
	} {
		t.Run(name, func(t *testing.T) {
			srv := newGatedServer(t, cfg, nil)

			var res struct {
				Partial  bool     `json:"partial"`
				Warnings []string `json:"warnings"`
			}
			if code := getJSON(t, slowQueryURL(srv.URL), &res); code != 200 {
				t.Fatalf("lenient budgeted query: status %d", code)
			}
			if !res.Partial || len(res.Warnings) == 0 {
				t.Fatalf("budget-capped query not partial (partial=%v warnings=%d)", res.Partial, len(res.Warnings))
			}

			resp, err := http.Get(srv.URL + "/render?series=root.s1&tqs=0&tqe=3000&w=5&h=10")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != 200 || resp.Header.Get("X-M4-Partial") == "" {
				t.Fatalf("budget-capped render: status %d, X-M4-Partial %q; want 200 and partial",
					resp.StatusCode, resp.Header.Get("X-M4-Partial"))
			}

			q := url.Values{}
			q.Set("q", "SELECT M4(*) FROM root.s1 WHERE time >= 0 AND time < 3000 GROUP BY SPANS(5) USING LSM STRICT")
			resp, err = http.Get(srv.URL + "/query?" + q.Encode())
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("strict budgeted query: status %d, want 503", resp.StatusCode)
			}
			if kind := resp.Header.Get("X-M4-Error"); kind != "budget-exceeded" {
				t.Errorf("X-M4-Error = %q, want budget-exceeded", kind)
			}
		})
	}
}

// TestStatementTimeoutOverridesDefault: a server default timeout that has
// passed before the first chunk load leaves a query partial, and the
// statement's own TIMEOUT replaces it.
func TestStatementTimeoutOverridesDefault(t *testing.T) {
	srv := newGatedServer(t, Config{QueryTimeout: time.Nanosecond}, nil)
	query := func(q string) (partial bool) {
		t.Helper()
		var res struct {
			Partial bool `json:"partial"`
		}
		if code := getJSON(t, srv.URL+"/query?"+url.Values{"q": {q}}.Encode(), &res); code != 200 {
			t.Fatalf("%s: status %d", q, code)
		}
		return res.Partial
	}
	const q = "SELECT M4(*) FROM root.s1 WHERE time >= 0 AND time < 3000 GROUP BY SPANS(5) USING LSM"
	if !query(q) {
		t.Error("a query under a passed default timeout is not partial")
	}
	if query(q + " TIMEOUT 60000") {
		t.Error("a statement TIMEOUT did not override the server's default")
	}
}

// TestBodyBounds: oversized and malformed POST bodies answer 400 — never a
// panic or an opaque 500.
func TestBodyBounds(t *testing.T) {
	srv := newGatedServer(t, Config{MaxBodyBytes: 256}, nil)

	big := `{"query": "` + strings.Repeat("x", 1024) + `"}`
	resp, err := http.Post(srv.URL+"/query", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body: status %d, want 400", resp.StatusCode)
	}

	resp, err = http.Post(srv.URL+"/query", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", resp.StatusCode)
	}
}

// TestHealthzReadOnly surfaces disk-full degradation on /healthz: after an
// injected ENOSPC flush the status flips to "read-only" with the reason.
func TestHealthzReadOnly(t *testing.T) {
	var diskFull atomic.Bool
	hook := func(site string) error {
		if diskFull.Load() && (strings.HasPrefix(site, "flush.chunk:") || site == "probe.space") {
			return fmt.Errorf("injected: %w", syscall.ENOSPC)
		}
		return nil
	}
	e, err := lsm.Open(lsm.Options{Dir: t.TempDir(), StepHook: hook, SpaceProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		e.Write("root.s1", series.Point{T: int64(i), V: float64(i % 7)})
	}
	h := NewWith(e, Config{})
	srv := httptest.NewServer(h)
	t.Cleanup(func() {
		srv.Close()
		h.Close()
		diskFull.Store(false) // let Close flush cleanly
		e.Close()
	})

	diskFull.Store(true)
	if err := e.Flush(); err == nil {
		t.Fatal("flush on full disk succeeded")
	}

	var body map[string]interface{}
	if code := getJSON(t, srv.URL+"/healthz", &body); code != 200 {
		t.Fatalf("/healthz status %d", code)
	}
	if body["status"] != "read-only" || body["readOnly"] != true {
		t.Fatalf("healthz on full disk: %v", body)
	}
	if reason, _ := body["readOnlyReason"].(string); reason == "" {
		t.Error("readOnlyReason empty in read-only mode")
	}

	diskFull.Store(false)
	if err := e.Flush(); err != nil {
		t.Fatalf("flush after space returned: %v", err)
	}
	if code := getJSON(t, srv.URL+"/healthz", &body); code != 200 || body["status"] == "read-only" {
		t.Fatalf("healthz after recovery: code=%d body=%v", code, body)
	}
}
