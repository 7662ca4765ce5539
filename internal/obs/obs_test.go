package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs_total", "endpoint", "/query").Add(3)
	r.Counter("reqs_total", "endpoint", "/render").Inc()
	r.Gauge("memtable_points").Set(42)
	r.GaugeFunc("wal_bytes", func() float64 { return 1024 })
	r.CounterFunc("cache_hits_total", func() float64 { return 7 })

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{
		"# TYPE reqs_total counter",
		`reqs_total{endpoint="/query"} 3`,
		`reqs_total{endpoint="/render"} 1`,
		"# TYPE memtable_points gauge",
		"memtable_points 42",
		"wal_bytes 1024",
		"# TYPE cache_hits_total counter",
		"cache_hits_total 7",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q in:\n%s", want, got)
		}
	}
	// The TYPE line for a name must appear exactly once even with several
	// label sets.
	if n := strings.Count(got, "# TYPE reqs_total counter"); n != 1 {
		t.Errorf("TYPE line appears %d times", n)
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("query_seconds", "op", "lsm")
	h.Observe(0.0001) // bucket le=200µs
	h.Observe(0.01)   // bucket le=12.8ms
	h.Observe(100)    // overflow, +Inf only

	var sb strings.Builder
	r.WritePrometheus(&sb)
	got := sb.String()
	for _, want := range []string{
		"# TYPE query_seconds histogram",
		`query_seconds_bucket{op="lsm",le="0.0002"} 1`,
		`query_seconds_bucket{op="lsm",le="0.0128"} 2`,
		`query_seconds_bucket{op="lsm",le="+Inf"} 3`,
		`query_seconds_count{op="lsm"} 3`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q in:\n%s", want, got)
		}
	}
	if h.Count() != 3 {
		t.Errorf("Count = %d", h.Count())
	}
	snap := r.Snapshot()
	hv, ok := snap[`query_seconds{op="lsm"}`].(map[string]interface{})
	if !ok {
		t.Fatalf("snapshot missing histogram: %v", snap)
	}
	if hv["count"].(int64) != 3 {
		t.Errorf("snapshot count = %v", hv["count"])
	}
}

func TestRegistrySameInstrument(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Inc()
	r.Counter("c").Inc()
	if v := r.Counter("c").Value(); v != 2 {
		t.Errorf("counter identity broken: %d", v)
	}
	// Same name, different labels: distinct series.
	r.Counter("c", "k", "v").Inc()
	if v := r.Counter("c").Value(); v != 2 {
		t.Errorf("labelled series leaked into unlabelled: %d", v)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(1)
	r.Gauge("y").Set(2)
	r.Histogram("z").Observe(3)
	r.GaugeFunc("g", func() float64 { return 0 })
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if len(r.Snapshot()) != 0 {
		t.Error("nil registry snapshot not empty")
	}

	var tr *Trace
	tr.Phase("p", time.Second)
	tr.SetCounters(map[string]int64{"c": 1})
	tr.Warn("w")
	if tr.Finish() != nil {
		t.Error("nil trace not inert")
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("c").Inc()
				r.Histogram("h").Observe(0.001)
				r.Gauge("g").Add(1)
			}
		}()
	}
	wg.Wait()
	if v := r.Counter("c").Value(); v != 8000 {
		t.Errorf("counter = %d, want 8000", v)
	}
	if n := r.Histogram("h").Count(); n != 8000 {
		t.Errorf("histogram count = %d, want 8000", n)
	}
}

func TestTrace(t *testing.T) {
	ctx, tr := WithTrace(context.Background())
	if TraceOf(ctx) != tr {
		t.Fatal("TraceOf lost the trace")
	}
	if TraceOf(context.Background()) != nil {
		t.Fatal("TraceOf invented a trace")
	}
	phases := []string{"plan", "wave-fp", "wave-rest", "assemble"}
	for _, name := range phases {
		start := time.Now()
		tr.Phase(name, time.Since(start))
	}
	tr.Warn("degraded")
	tr.SetCounters(map[string]int64{"chunksLoaded": 9})

	snap := tr.Finish()
	if snap.ID == "" || snap.ElapsedNs <= 0 {
		t.Errorf("snapshot header: %+v", snap)
	}
	if len(snap.Phases) != len(phases) {
		t.Fatalf("phases = %+v, want %v", snap.Phases, phases)
	}
	var sum int64
	for i, ph := range snap.Phases {
		if ph.Name != phases[i] {
			t.Errorf("phase %d is %q, want %q", i, ph.Name, phases[i])
		}
		sum += ph.Ns
	}
	if sum > snap.ElapsedNs {
		t.Errorf("phases sum to %d ns, more than the %d ns elapsed", sum, snap.ElapsedNs)
	}
	if snap.Counters["chunksLoaded"] != 9 || len(snap.Warnings) != 1 {
		t.Errorf("counters/warnings: %+v", snap)
	}
}

// Add moves the gauge by d (either sign).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.in.val.Add(d)
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.in.hist.count.Load()
}

// Quantile estimates the q-quantile of the histogram's observations so far
// (see HistogramSample.Quantile for the conventions). 0 on nil.
func (h *Histogram) Quantile(q float64) float64 {
	return h.sample().Quantile(q)
}
