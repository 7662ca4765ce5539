package history

import (
	"errors"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"m4lsm/internal/lsm"
	"m4lsm/internal/obs"
	"m4lsm/internal/series"
)

// memSink collects writes in memory; failN makes the first N batches fail.
type memSink struct {
	mu    sync.Mutex
	data  map[string][]series.Point
	failN int
}

func newMemSink() *memSink { return &memSink{data: map[string][]series.Point{}} }

func (s *memSink) WriteBatch(entries ...lsm.BatchEntry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failN > 0 {
		s.failN--
		return errors.New("injected sink failure")
	}
	for _, ent := range entries {
		s.data[ent.SeriesID] = append(s.data[ent.SeriesID], ent.Points...)
	}
	return nil
}

func (s *memSink) ids() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.data))
	for id := range s.data {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

func (s *memSink) points(id string) []series.Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]series.Point(nil), s.data[id]...)
}

func TestSampleOnceNamingContract(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("http_requests_total", "endpoint", "/query").Add(5)
	reg.Gauge("lsm_memtable_points").Set(42)
	reg.Histogram("http_request_seconds", "endpoint", "/query").Observe(0.01)
	sink := newMemSink()
	s := New(Config{Registry: reg, Sink: sink})

	now := time.UnixMilli(1_000_000)
	n, err := s.SampleOnce(now)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("SampleOnce wrote nothing")
	}
	ids := sink.ids()
	has := func(id string) {
		t.Helper()
		for _, got := range ids {
			if got == id {
				return
			}
		}
		t.Errorf("missing series %s in %v", id, ids)
	}
	has("root.sys.http_requests_total.endpoint_query")
	has("root.sys.lsm_memtable_points")
	has("root.sys.http_request_seconds.endpoint_query.count")
	has("root.sys.http_request_seconds.endpoint_query.sum")
	has("root.sys.http_request_seconds.endpoint_query.p50")
	has("root.sys.http_request_seconds.endpoint_query.p95")
	has("root.sys.http_request_seconds.endpoint_query.p99")
	has("root.sys.http_request_seconds.endpoint_query.bucket.le_inf")
	has("root.sys.http_request_seconds.endpoint_query.bucket.le_0_0128")
	has("root.sys.derived.qps")
	has("root.sys.derived.cache_hit_ratio")
	// The sampler's own instruments are sampled too (dogfood the dogfood).
	has("root.sys.selfmetrics_samples_total")

	pts := sink.points("root.sys.http_requests_total.endpoint_query")
	if len(pts) != 1 || pts[0].T != now.UnixMilli() || pts[0].V != 5 {
		t.Errorf("counter point = %+v, want {T:%d V:5}", pts, now.UnixMilli())
	}
	if pts := sink.points("root.sys.http_request_seconds.endpoint_query.count"); len(pts) != 1 || pts[0].V != 1 {
		t.Errorf("histogram count point = %+v", pts)
	}

	// Every id obeys the naming contract prefix.
	for _, id := range ids {
		if len(id) < len(Prefix) || id[:len(Prefix)] != Prefix {
			t.Errorf("series %s escapes the %s namespace", id, Prefix)
		}
	}
}

// TestCardinalityStable is the bounded-feedback invariant: ticks move
// values, never mint series — the set after tick 2 equals the set after
// tick 50 even though the sampler observes its own counters.
func TestCardinalityStable(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("http_requests_total", "endpoint", "/query").Add(1)
	reg.Histogram("http_request_seconds", "endpoint", "/query").Observe(0.01)
	sink := newMemSink()
	s := New(Config{Registry: reg, Sink: sink})

	now := time.UnixMilli(0)
	for i := 0; i < 2; i++ {
		now = now.Add(time.Second)
		if _, err := s.SampleOnce(now); err != nil {
			t.Fatal(err)
		}
	}
	after2 := sink.ids()
	for i := 0; i < 48; i++ {
		now = now.Add(time.Second)
		reg.Counter("http_requests_total", "endpoint", "/query").Inc() // traffic keeps flowing
		if _, err := s.SampleOnce(now); err != nil {
			t.Fatal(err)
		}
	}
	after50 := sink.ids()
	if len(after2) != len(after50) {
		t.Fatalf("series set grew %d -> %d across ticks", len(after2), len(after50))
	}
	for i := range after2 {
		if after2[i] != after50[i] {
			t.Fatalf("series set changed: %s vs %s", after2[i], after50[i])
		}
	}
	// Every series got exactly one point per tick.
	if pts := sink.points("root.sys.selfmetrics_samples_total"); len(pts) != 50 {
		t.Errorf("selfmetrics_samples_total has %d points, want 50", len(pts))
	}
}

func TestDerivedRates(t *testing.T) {
	reg := obs.NewRegistry()
	q := reg.Counter("http_requests_total", "endpoint", "/query")
	hits := reg.Counter("chunk_cache_hits_total")
	misses := reg.Counter("chunk_cache_misses_total")
	sink := newMemSink()
	s := New(Config{Registry: reg, Sink: sink})

	t0 := time.UnixMilli(10_000)
	q.Add(100)
	if _, err := s.SampleOnce(t0); err != nil {
		t.Fatal(err)
	}
	q.Add(30) // 30 queries over the next 2 seconds -> 15 qps
	hits.Add(9)
	misses.Add(1)
	if _, err := s.SampleOnce(t0.Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}

	qps := sink.points("root.sys.derived.qps")
	if len(qps) != 2 {
		t.Fatalf("qps points: %v", qps)
	}
	if qps[0].V != 0 { // first tick has no previous reading
		t.Errorf("first qps = %g, want 0", qps[0].V)
	}
	if qps[1].V != 15 {
		t.Errorf("qps = %g, want 15", qps[1].V)
	}
	ratio := sink.points("root.sys.derived.cache_hit_ratio")
	if ratio[1].V != 0.9 {
		t.Errorf("cache hit ratio = %g, want 0.9", ratio[1].V)
	}
}

func TestWriteErrorsCounted(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("a_total").Add(1)
	sink := newMemSink()
	sink.failN = 2
	s := New(Config{Registry: reg, Sink: sink})
	for tick := int64(1); tick <= 2; tick++ {
		if n, err := s.SampleOnce(time.UnixMilli(1000 * tick)); err == nil || n != 0 {
			t.Fatalf("tick %d: SampleOnce = %d, %v; want the sink error and no points", tick, n, err)
		}
	}
	if got := reg.Counter("selfmetrics_write_errors_total").Value(); got != 2 {
		t.Errorf("write_errors counter = %d, want 2 (one per dropped tick)", got)
	}
	// A failed tick does not wedge the sampler: later healthy ticks succeed.
	if n, err := s.SampleOnce(time.UnixMilli(3000)); err != nil || n == 0 {
		t.Fatalf("healthy tick after failures = %d, %v", n, err)
	}
}

func TestSamplerStartStopNoLeak(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("a_total").Add(1)
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		s := New(Config{Registry: reg, Sink: newMemSink(), Interval: time.Millisecond})
		s.Start()
		s.Start() // idempotent
		s.Stop()
		s.Stop() // idempotent
	}
	// Stop on a never-started sampler must not hang.
	s := New(Config{Registry: reg, Sink: newMemSink()})
	done := make(chan struct{})
	go func() { s.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop on never-started sampler hung")
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

// TestSamplerHammer races a running sampler against writers mutating the
// registry; -race is the assertion.
func TestSamplerHammer(t *testing.T) {
	reg := obs.NewRegistry()
	sink := newMemSink()
	s := New(Config{Registry: reg, Sink: sink, Interval: time.Millisecond})
	s.Start()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			eps := []string{"/query", "/render"}
			for i := 0; i < 300; i++ {
				reg.Counter("http_requests_total", "endpoint", eps[i%2]).Inc()
				reg.Histogram("http_request_seconds", "endpoint", eps[i%2]).Observe(0.001)
			}
		}(w)
	}
	wg.Wait()
	s.Stop()
	if got := reg.Counter("selfmetrics_write_errors_total").Value(); got != 0 {
		t.Errorf("write errors under hammer: %d", got)
	}
}

func TestSanitize(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"/query", "query"},
		{"/debug/slowlog", "debug_slowlog"},
		{"0.0128", "0_0128"},
		{"GET", "GET"},
		{"a--b__c", "a_b_c"},
		{"___", "x"},
		{"", "x"},
		{"trailing/", "trailing"},
	} {
		if got := sanitize(tc.in); got != tc.want {
			t.Errorf("sanitize(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestQuantileSuffix(t *testing.T) {
	for _, tc := range []struct {
		q    float64
		want string
	}{
		{0.50, ".p50"},
		{0.95, ".p95"},
		{0.99, ".p99"},
		{0.999, ".p99_9"},
	} {
		if got := quantileSuffix(tc.q); got != tc.want {
			t.Errorf("quantileSuffix(%g) = %q, want %q", tc.q, got, tc.want)
		}
	}
}

func TestSeriesName(t *testing.T) {
	if got := SeriesName("http_requests_total", []string{"endpoint", "/query"}); got != "root.sys.http_requests_total.endpoint_query" {
		t.Errorf("SeriesName = %q", got)
	}
	if got := SeriesName("m", nil); got != "root.sys.m" {
		t.Errorf("SeriesName without labels = %q", got)
	}
}
