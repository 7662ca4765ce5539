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
	tr.Task(0, "FP", time.Second)
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
	tr.Phase("plan", 5*time.Microsecond)
	var wg sync.WaitGroup
	for span := 0; span < 4; span++ {
		wg.Add(1)
		go func(span int) {
			defer wg.Done()
			for _, g := range []string{"FP", "LP", "BP", "TP"} {
				tr.Task(span, g, time.Duration(span+1)*time.Microsecond)
			}
		}(span)
	}
	wg.Wait()
	tr.Warn("degraded")
	tr.SetCounters(map[string]int64{"chunksLoaded": 9})

	snap := tr.Finish()
	if snap.ID == "" || snap.ElapsedNs <= 0 {
		t.Errorf("snapshot header: %+v", snap)
	}
	if len(snap.Tasks) != 16 {
		t.Fatalf("tasks = %d", len(snap.Tasks))
	}
	var sum int64
	for i, task := range snap.Tasks {
		sum += task.Ns
		if i > 0 {
			prev := snap.Tasks[i-1]
			if task.Span < prev.Span || (task.Span == prev.Span && task.G < prev.G) {
				t.Errorf("tasks unsorted at %d: %+v after %+v", i, task, prev)
			}
		}
	}
	if sum != snap.TaskTotalNs {
		t.Errorf("TaskTotalNs = %d, tasks sum to %d", snap.TaskTotalNs, sum)
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

// TestTallyFlushMatchesObserve: a batch observed into a Tally and flushed
// leaves a histogram exactly as observing each value on its own does —
// same buckets and count, the sum equal up to rounding — and flushing
// empties the tally, so a second flush adds nothing.
func TestTallyFlushMatchesObserve(t *testing.T) {
	r := NewRegistry()
	each, batched := r.Histogram("each_seconds"), r.Histogram("batched_seconds")
	var tl Tally
	for i := 0; i < 1000; i++ {
		v := float64(i*i%977) * 7e-6 // 0 .. ~6.8 ms, across several buckets
		each.Observe(v)
		tl.Observe(v)
	}
	batched.Flush(&tl)
	batched.Flush(&tl)
	var nilHist *Histogram
	tl.Observe(1)
	nilHist.Flush(&tl)
	if tl != (Tally{}) {
		t.Error("a flush into the nil histogram left the tally full")
	}
	a, b := each.sample(), batched.sample()
	if a.Count != b.Count || a.Count != 1000 {
		t.Errorf("count: observed %d, flushed %d, want 1000", a.Count, b.Count)
	}
	for i := range a.Counts {
		if a.Counts[i] != b.Counts[i] {
			t.Errorf("bucket %d: observed %d, flushed %d", i, a.Counts[i], b.Counts[i])
		}
	}
	if d := a.Sum - b.Sum; d > 1e-9 || d < -1e-9 {
		t.Errorf("sum: observed %v, flushed %v", a.Sum, b.Sum)
	}
}
