// Package obs is the stdlib-only observability layer of the server: a
// concurrency-safe metrics registry with Prometheus-text and JSON
// exposition, query-scoped tracing carried via context.Context, a
// ring-buffer slow-query log, and slog helpers for request-scoped
// structured logging.
//
// Everything is nil-safe: a nil *Registry hands out nil instruments whose
// methods are no-ops, so instrumented hot paths cost one pointer check
// when observability is off (the default for library users; cmd/m4server
// always wires a registry in).
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds named instruments. All methods are safe for concurrent
// use, including on a nil receiver (which hands out nil instruments).
// An instrument is identified by name plus its full label set; asking
// twice for the same identity returns the same instrument.
type Registry struct {
	mu    sync.Mutex
	instr map[string]*instrument      // key: name + serialized labels
	ops   map[string]*OperatorMetrics // NewOperatorMetrics, by operator label
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{instr: make(map[string]*instrument), ops: make(map[string]*OperatorMetrics)}
}

// instrKind discriminates exposition types.
type instrKind uint8

const (
	kindCounter instrKind = iota
	kindGauge
	kindFuncCounter
	kindFuncGauge
	kindHistogram
)

func (k instrKind) promType() string {
	switch k {
	case kindCounter, kindFuncCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// instrument is one registered metric series.
type instrument struct {
	name     string
	labels   string   // serialized {k="v",...} or ""
	labelKVs []string // the raw k1, v1, k2, v2, ... list behind labels
	kind     instrKind

	val  atomic.Int64      // counters and integer gauges
	fn   func() float64    // func-backed counters/gauges
	hist *histogramBuckets // histograms
}

func serializeLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", kv[i], kv[i+1])
	}
	sb.WriteByte('}')
	return sb.String()
}

// lookup returns the instrument for (name, labels), creating it with kind
// on first use. Asking for an existing name with a different kind is a
// programming error; the existing instrument wins so exposition stays
// consistent.
func (r *Registry) lookup(name string, labels []string, kind instrKind) *instrument {
	if r == nil {
		return nil
	}
	ls := serializeLabels(labels)
	key := name + ls
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.instr[key]; ok {
		return in
	}
	in := &instrument{name: name, labels: ls, labelKVs: append([]string(nil), labels...), kind: kind}
	if kind == kindHistogram {
		in.hist = newHistogramBuckets(defaultBuckets[:])
	}
	r.instr[key] = in
	return in
}

// Counter is a monotonically increasing int64. Nil-safe.
type Counter struct{ in *instrument }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	in := r.lookup(name, labels, kindCounter)
	if in == nil {
		return nil
	}
	return &Counter{in: in}
}

// Add increments the counter by d (d < 0 is ignored).
func (c *Counter) Add(d int64) {
	if c == nil || d <= 0 {
		return
	}
	c.in.val.Add(d)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.in.val.Load()
}

// Gauge is a settable int64 level. Nil-safe.
type Gauge struct{ in *instrument }

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	in := r.lookup(name, labels, kindGauge)
	if in == nil {
		return nil
	}
	return &Gauge{in: in}
}

// Set stores the gauge value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.in.val.Store(v)
}

// GaugeFunc registers a gauge whose value is read from fn at exposition
// time. fn must be safe for concurrent use.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...string) {
	if in := r.lookup(name, labels, kindFuncGauge); in != nil {
		in.fn = fn
	}
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time (for sources that keep their own monotonic counts, like
// the chunk cache). fn must be safe for concurrent use.
func (r *Registry) CounterFunc(name string, fn func() float64, labels ...string) {
	if in := r.lookup(name, labels, kindFuncCounter); in != nil {
		in.fn = fn
	}
}

// defaultBuckets are latency-shaped upper bounds in seconds: 50µs .. ~26s
// in powers of four, a spread that resolves both in-memory span tasks and
// slow disk-bound queries with 10 buckets.
var defaultBuckets = [...]float64{
	50e-6, 200e-6, 800e-6, 3.2e-3, 12.8e-3, 51.2e-3, 204.8e-3, 819.2e-3, 3.2768, 13.1072,
}

// histogramBuckets is the atomic state of one histogram: cumulative
// exposition is computed at read time from per-bucket counts.
type histogramBuckets struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1, last = +Inf overflow
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 sum, CAS-updated
}

func newHistogramBuckets(bounds []float64) *histogramBuckets {
	return &histogramBuckets{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Histogram is a fixed-bucket distribution of float64 observations
// (seconds, by convention). Nil-safe.
type Histogram struct{ in *instrument }

// Histogram returns the named histogram, creating it with the default
// latency buckets on first use.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	in := r.lookup(name, labels, kindHistogram)
	if in == nil {
		return nil
	}
	return &Histogram{in: in}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	b := h.in.hist
	i := sort.SearchFloat64s(b.bounds, v)
	b.counts[i].Add(1)
	b.count.Add(1)
	b.addSum(v)
}

func (b *histogramBuckets) addSum(v float64) {
	for {
		old := b.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if b.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Tally is one goroutine's batch of observations for a histogram with the
// default buckets: Observe touches no shared state, and Histogram.Flush
// publishes the whole batch with one atomic add per bucket it reached. A
// worker that times many short tasks observes into its own Tally and
// flushes once, instead of contending on the histogram per task.
type Tally struct {
	counts [len(defaultBuckets) + 1]int64
	n      int64
	sum    float64
}

// Observe records one value in the batch.
func (t *Tally) Observe(v float64) {
	t.counts[sort.SearchFloat64s(defaultBuckets[:], v)]++
	t.n++
	t.sum += v
}

// Flush adds t's observations to h and empties t. The histogram's count
// and buckets read as if each value had been observed on its own; its sum
// may differ from that in the last bits of rounding.
func (h *Histogram) Flush(t *Tally) {
	if h == nil || t.n == 0 {
		*t = Tally{}
		return
	}
	b := h.in.hist
	for i, n := range t.counts {
		if n != 0 {
			b.counts[i].Add(n)
		}
	}
	b.count.Add(t.n)
	b.addSum(t.sum)
	*t = Tally{}
}

// sorted returns the instruments ordered by (name, labels) for stable
// exposition.
func (r *Registry) sorted() []*instrument {
	r.mu.Lock()
	out := make([]*instrument, 0, len(r.instr))
	for _, in := range r.instr {
		out = append(out, in)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].labels < out[j].labels
	})
	return out
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every instrument in the Prometheus text
// exposition format (version 0.0.4). A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var sb strings.Builder
	lastName := ""
	for _, in := range r.sorted() {
		if in.name != lastName {
			fmt.Fprintf(&sb, "# TYPE %s %s\n", in.name, in.kind.promType())
			lastName = in.name
		}
		switch in.kind {
		case kindCounter, kindGauge:
			fmt.Fprintf(&sb, "%s%s %d\n", in.name, in.labels, in.val.Load())
		case kindFuncCounter, kindFuncGauge:
			fmt.Fprintf(&sb, "%s%s %s\n", in.name, in.labels, formatFloat(in.fn()))
		case kindHistogram:
			b := in.hist
			cum := int64(0)
			for i, bound := range b.bounds {
				cum += b.counts[i].Load()
				fmt.Fprintf(&sb, "%s_bucket%s %d\n", in.name, mergeLabels(in.labels, "le", formatFloat(bound)), cum)
			}
			cum += b.counts[len(b.bounds)].Load()
			fmt.Fprintf(&sb, "%s_bucket%s %d\n", in.name, mergeLabels(in.labels, "le", "+Inf"), cum)
			fmt.Fprintf(&sb, "%s_sum%s %s\n", in.name, in.labels, formatFloat(math.Float64frombits(b.sumBits.Load())))
			fmt.Fprintf(&sb, "%s_count%s %d\n", in.name, in.labels, b.count.Load())
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// mergeLabels appends one extra label to an already-serialized label set.
func mergeLabels(ls, k, v string) string {
	extra := fmt.Sprintf("%s=%q", k, v)
	if ls == "" {
		return "{" + extra + "}"
	}
	return ls[:len(ls)-1] + "," + extra + "}"
}

// Snapshot returns every instrument as a JSON-friendly map keyed by
// name{labels}. Counters and gauges map to numbers; histograms to an
// object with count, sum and per-bucket cumulative counts.
func (r *Registry) Snapshot() map[string]interface{} {
	out := map[string]interface{}{}
	if r == nil {
		return out
	}
	for _, in := range r.sorted() {
		key := in.name + in.labels
		switch in.kind {
		case kindCounter, kindGauge:
			out[key] = in.val.Load()
		case kindFuncCounter, kindFuncGauge:
			out[key] = in.fn()
		case kindHistogram:
			hs := in.hist.sample()
			buckets := map[string]int64{}
			for i, bound := range hs.Bounds {
				buckets[formatFloat(bound)] = hs.Counts[i]
			}
			buckets["+Inf"] = hs.Counts[len(hs.Bounds)]
			out[key] = map[string]interface{}{
				"count":   hs.Count,
				"sum":     hs.Sum,
				"buckets": buckets,
				// Estimated quantiles (see HistogramSample.Quantile): fixed
				// buckets resolve these well enough for dashboards, and
				// surfacing them here saves every scraper the arithmetic.
				"p50": hs.Quantile(0.50),
				"p95": hs.Quantile(0.95),
				"p99": hs.Quantile(0.99),
			}
		}
	}
	return out
}
