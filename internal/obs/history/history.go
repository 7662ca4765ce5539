// Package history is the self-observability sampler: it periodically walks
// the obs metrics registry and appends every instrument's value as points
// into dedicated system series (root.sys.<metric>[.<label>...][.<field>])
// written through the same storage engine the server serves user data from.
// The database dogfoods its own representation: metric history is stored in
// the LSM engine, covered by the WAL, backups, the scrubber and the rollup
// pyramid, and queried/rendered through the paper's M4 operator — "why did
// p99 spike at 14:02" is answered by the node itself with a
// `SELECT M4(*) FROM root.sys.*` query, no external Prometheus required.
//
// Cardinality is bounded by construction: the series set is a pure function
// of the registry's instrument set, whose names and label values are fixed
// finite vocabularies (endpoints, status classes, operator names). Sampling
// moves values, never mints instruments, so the sampler observing its own
// selfmetrics_* counters converges instead of feeding back: the second tick
// sees the same series set as the hundredth. Tests assert this.
package history

import (
	"log/slog"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"m4lsm/internal/lsm"
	"m4lsm/internal/obs"
	"m4lsm/internal/series"
)

// Prefix is where system series live, beside (never colliding with) user
// series — user series ids are free-form, but the root.sys. namespace is
// documented as reserved.
const Prefix = "root.sys."

// quantiles are the estimated quantiles persisted per histogram as
// .p<percent> series, beside its count, sum and per-bucket series.
var quantiles = [...]float64{0.50, 0.95, 0.99}

// Sink receives each tick's points as one batch — one entry, one point per
// system series; *lsm.Engine satisfies it. One batch per tick rather than
// one write per series: under a synced WAL that is one group commit a
// second instead of one fsync per series.
type Sink interface {
	WriteBatch(entries ...lsm.BatchEntry) error
}

// Config wires a Sampler.
type Config struct {
	// Registry is walked every tick. Required.
	Registry *obs.Registry
	// Sink receives the points. Required.
	Sink Sink
	// Interval between samples (default 1s).
	Interval time.Duration
	// Logger receives rate-limited write-failure logs; nil uses
	// slog.Default().
	Logger *slog.Logger
}

// Sampler periodically snapshots a metrics registry into a Sink. Start
// launches the ticker goroutine; Stop halts it and waits for it to exit.
// SampleOnce is the core and is exported so tests (and the exper sweep)
// drive sampling with controlled clocks.
type Sampler struct {
	cfg Config

	// Own health instruments, registered in the same registry — they are
	// sampled like everything else (bounded: four fixed instruments).
	samples  *obs.Counter
	points   *obs.Counter
	writeErr *obs.Counter
	lastUnix *obs.Gauge

	// Derived-rate state: the previous tick's request count and time.
	prevReqs float64
	prevWhen time.Time

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}

	loggedErr bool
}

// New builds a Sampler; it does not start sampling.
func New(cfg Config) *Sampler {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	return &Sampler{
		cfg:      cfg,
		samples:  cfg.Registry.Counter("selfmetrics_samples_total"),
		points:   cfg.Registry.Counter("selfmetrics_points_total"),
		writeErr: cfg.Registry.Counter("selfmetrics_write_errors_total"),
		lastUnix: cfg.Registry.Gauge("selfmetrics_last_sample_unix"),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Interval reports the configured sampling period.
func (s *Sampler) Interval() time.Duration { return s.cfg.Interval }

// Start launches the background ticker. Idempotent.
func (s *Sampler) Start() {
	s.startOnce.Do(func() {
		go func() {
			defer close(s.done)
			tick := time.NewTicker(s.cfg.Interval)
			defer tick.Stop()
			for {
				select {
				case <-s.stop:
					return
				case now := <-tick.C:
					s.SampleOnce(now)
				}
			}
		}()
	})
}

// Stop halts the ticker and waits for the goroutine to exit. Idempotent;
// safe on a never-started sampler.
func (s *Sampler) Stop() {
	s.stopOnce.Do(func() {
		close(s.stop)
	})
	s.startOnce.Do(func() { close(s.done) }) // never started: nothing to wait for
	<-s.done
}

// SampleOnce walks the registry once and writes one point per system series
// at timestamp now, as a single batch. It returns the number of points
// written and the write error (sampling continues past errors: a read-only
// engine drops this tick's points, it does not wedge the sampler).
func (s *Sampler) SampleOnce(now time.Time) (int, error) {
	t := now.UnixMilli()
	var batch []lsm.BatchEntry
	write := func(id string, v float64) {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			batch = append(batch, lsm.BatchEntry{SeriesID: id, Points: []series.Point{{T: t, V: v}}})
		}
	}

	var reqs float64 // /query and /render requests, for derived.qps
	for _, sm := range s.cfg.Registry.Samples() {
		base := SeriesName(sm.Name, sm.Labels)
		switch sm.Kind {
		case obs.SampleCounter, obs.SampleGauge:
			write(base, sm.Value)
		case obs.SampleHistogram:
			write(base+".count", float64(sm.Hist.Count))
			write(base+".sum", sm.Hist.Sum)
			for _, q := range quantiles {
				write(base+quantileSuffix(q), sm.Hist.Quantile(q))
			}
			for i, bound := range sm.Hist.Bounds {
				write(base+".bucket.le_"+sanitize(formatBound(bound)), float64(sm.Hist.Counts[i]))
			}
			write(base+".bucket.le_inf", float64(sm.Hist.Counts[len(sm.Hist.Bounds)]))
		}
		if ep := labelValue(sm.Labels, "endpoint"); sm.Name == "http_requests_total" && (ep == "/query" || ep == "/render") {
			reqs += sm.Value
		}
	}

	// Derived series: the request rate over the last interval, which a
	// dashboard wants directly and a cumulative counter cannot show without
	// client-side differencing.
	qps := 0.0
	if dt := now.Sub(s.prevWhen).Seconds(); !s.prevWhen.IsZero() && dt > 0 && reqs >= s.prevReqs {
		qps = (reqs - s.prevReqs) / dt
	}
	write(Prefix+"derived.qps", qps)
	s.prevReqs, s.prevWhen = reqs, now

	// A failed batch counts as a dropped tick even when some entries got in
	// before the error (re-sampling the same instant later is idempotent).
	n, err := len(batch), s.cfg.Sink.WriteBatch(batch...)
	if err != nil {
		n = 0
		s.writeErr.Inc()
		if !s.loggedErr {
			s.loggedErr = true
			s.cfg.Logger.Warn("self-metrics: write", "points", len(batch), "err", err)
		}
	}
	s.samples.Inc()
	s.points.Add(int64(n))
	s.lastUnix.Set(now.Unix())
	return n, err
}

// SeriesName maps one instrument identity to its system series id, the
// naming contract between the sampler, the dashboard and tests:
// root.sys.<metric>[.<key>_<value>...] with label values sanitized to the
// m4ql identifier alphabet.
func SeriesName(metric string, labels []string) string {
	return Prefix + metric + labelSuffix(labels)
}

// labelSuffix renders the k1,v1,... list as .k1_v1.k2_v2 with sanitized
// values.
func labelSuffix(kvs []string) string {
	if len(kvs) == 0 {
		return ""
	}
	var sb strings.Builder
	for i := 0; i+1 < len(kvs); i += 2 {
		sb.WriteByte('.')
		sb.WriteString(sanitize(kvs[i]))
		sb.WriteByte('_')
		sb.WriteString(sanitize(kvs[i+1]))
	}
	return sb.String()
}

// sanitize maps an arbitrary label value into the identifier alphabet the
// m4ql lexer accepts inside a series id ([A-Za-z0-9_]): every other byte
// becomes '_', runs collapse, and edges are trimmed. Distinct values can in
// principle collide after sanitization; the registry's label vocabularies
// (endpoints, status classes, operator names) do not.
func sanitize(v string) string {
	var sb strings.Builder
	lastUnderscore := false
	for i := 0; i < len(v); i++ {
		c := v[i]
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		switch {
		case ok:
			sb.WriteByte(c)
			lastUnderscore = false
		case sb.Len() == 0 || lastUnderscore:
			// Skip: no leading underscore, no runs.
		default:
			sb.WriteByte('_')
			lastUnderscore = true
		}
	}
	out := strings.TrimSuffix(sb.String(), "_")
	if out == "" {
		return "x"
	}
	return out
}

// quantileSuffix renders 0.99 as ".p99", 0.5 as ".p50", 0.999 as ".p99_9".
func quantileSuffix(q float64) string {
	pct := q * 100
	whole := int(pct)
	frac := pct - float64(whole)
	if frac < 1e-9 {
		return ".p" + strconv.Itoa(whole)
	}
	return ".p" + strconv.Itoa(whole) + "_" + strconv.Itoa(int(frac*10+0.5))
}

// formatBound renders a bucket bound in fixed-point ("0.00005",
// "13.1072") — never an exponent, so sanitize maps it predictably into the
// identifier alphabet ("0_00005").
func formatBound(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// labelValue returns the value of key in a k1,v1,... list ("" if absent).
func labelValue(kvs []string, key string) string {
	for i := 0; i+1 < len(kvs); i += 2 {
		if kvs[i] == key {
			return kvs[i+1]
		}
	}
	return ""
}
