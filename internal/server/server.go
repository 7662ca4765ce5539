// Package server exposes the database over HTTP: m4ql queries as JSON, a
// PNG line-chart renderer backed by the M4 operator (what a dashboard
// would call), and introspection endpoints — health, metrics (Prometheus
// text and JSON), and a slow-query log. cmd/m4server wires it to a
// database directory.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"m4lsm/internal/buildinfo"
	"m4lsm/internal/govern"
	"m4lsm/internal/lsm"
	"m4lsm/internal/m4"
	"m4lsm/internal/m4ql"
	"m4lsm/internal/obs"
	"m4lsm/internal/obs/history"
	"m4lsm/internal/reprops"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
	"m4lsm/internal/viz"
)

// Config tunes the handler's observability plumbing; the zero value is
// production-reasonable.
type Config struct {
	// Logger receives request and error logs; nil uses slog.Default().
	Logger *slog.Logger
	// SlowQueryThreshold is the minimum /query latency recorded in the
	// slow-query log (default 100ms; negative records every query).
	SlowQueryThreshold time.Duration
	// SlowLogCapacity bounds the slow-query ring buffer (default 128).
	SlowLogCapacity int

	// QuerySlots bounds concurrently executing query-class requests
	// (/query and /render; health and metrics endpoints are never gated).
	// 0 disables admission control.
	QuerySlots int
	// QueryQueueDepth is how many query-class requests may wait for a slot
	// beyond the ones running; anything past that is shed immediately with
	// 429 and a Retry-After header.
	QueryQueueDepth int
	// QueryQueueWait bounds how long a queued request waits for a slot
	// before being shed (default 1s; negative sheds immediately when no
	// slot is free).
	QueryQueueWait time.Duration

	// WriteSlots / WriteQueueDepth / WriteQueueWait are the same admission
	// knobs for the /write ingestion endpoint, on a gate of its own so a
	// write flood cannot starve queries of admission (and vice versa).
	// WriteSlots 0 disables write admission control.
	WriteSlots      int
	WriteQueueDepth int
	WriteQueueWait  time.Duration

	// QueryTimeout is the default soft wall-clock budget per query-class
	// request; a statement-level TIMEOUT clause overrides it. When the
	// budget expires the query degrades to a partial result with warnings
	// (or fails with 503 under STRICT). 0 means no default.
	QueryTimeout time.Duration
	// MaxChunksPerQuery / MaxPointsPerQuery are default per-query resource
	// caps (physical chunk loads / decoded points); 0 means unlimited.
	MaxChunksPerQuery int64
	MaxPointsPerQuery int64

	// MaxBodyBytes bounds request bodies (default 1 MiB). Oversized or
	// malformed bodies answer 400, never a 500.
	MaxBodyBytes int64

	// SelfMetricsInterval enables the self-observability sampler: every
	// interval the metrics registry is walked and appended as root.sys.*
	// series into the engine itself (queryable via m4ql, rendered by
	// /dashboard). 0 disables sampling; a negative interval builds the
	// sampler without starting it, for tests that drive SampleOnce with a
	// controlled clock.
	SelfMetricsInterval time.Duration

	// EventLogPath, when set, appends one JSONL wide event per /query and
	// /render request to this file. The in-memory tail behind /debug/events
	// is kept either way.
	EventLogPath string
	// EventLogBuffer is the bounded async event channel capacity (default
	// 256); a full buffer drops events and counts them, never blocking the
	// query path.
	EventLogBuffer int
}

// Handler serves the HTTP API for one engine.
type Handler struct {
	engine  *lsm.Engine
	mux     *http.ServeMux
	reg     *obs.Registry
	slowLog *obs.SlowLog
	log     *slog.Logger
	start   time.Time

	gate      *govern.Gate  // query-class admission; nil: off
	writeGate *govern.Gate  // /write admission; nil: off
	limits    govern.Limits // default per-query budget (zero: unbudgeted)
	maxBody   int64

	events  *obs.EventLog    // wide-event query log (always on)
	sampler *history.Sampler // nil: self-metrics off

	renderPartial *obs.Counter
}

// New builds the HTTP handler with default observability settings.
func New(e *lsm.Engine) *Handler { return NewWith(e, Config{}) }

// NewWith builds the HTTP handler. The metrics registry is the engine's
// (so /metrics exposes engine, cache and operator series next to the HTTP
// ones); an engine opened without one gets a handler-local registry, which
// then carries only HTTP and operator metrics.
func NewWith(e *lsm.Engine, cfg Config) *Handler {
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	threshold := cfg.SlowQueryThreshold
	if threshold == 0 {
		threshold = 100 * time.Millisecond
	} else if threshold < 0 {
		threshold = 0
	}
	reg := e.Metrics()
	if reg == nil {
		reg = obs.NewRegistry()
	}
	wait := cfg.QueryQueueWait
	if wait == 0 {
		wait = time.Second
	} else if wait < 0 {
		wait = 0
	}
	writeWait := cfg.WriteQueueWait
	if writeWait == 0 {
		writeWait = time.Second
	} else if writeWait < 0 {
		writeWait = 0
	}
	maxBody := cfg.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = 1 << 20
	}
	h := &Handler{
		engine:        e,
		mux:           http.NewServeMux(),
		reg:           reg,
		slowLog:       obs.NewSlowLog(threshold, cfg.SlowLogCapacity),
		log:           logger,
		start:         time.Now(),
		gate:          govern.NewGate(cfg.QuerySlots, cfg.QueryQueueDepth, wait),
		writeGate:     govern.NewGate(cfg.WriteSlots, cfg.WriteQueueDepth, writeWait),
		limits:        govern.Limits{MaxChunks: cfg.MaxChunksPerQuery, MaxPoints: cfg.MaxPointsPerQuery, Timeout: cfg.QueryTimeout},
		maxBody:       maxBody,
		renderPartial: reg.Counter("render_partial_total"),
	}
	reg.CounterFunc("http_shed_total", func() float64 { return float64(h.gate.Shed()) })
	reg.GaugeFunc("http_query_inflight", func() float64 { return float64(h.gate.InFlight()) })
	reg.GaugeFunc("http_query_waiting", func() float64 { return float64(h.gate.Waiting()) })
	reg.CounterFunc("http_write_shed_total", func() float64 { return float64(h.writeGate.Shed()) })
	reg.GaugeFunc("http_write_inflight", func() float64 { return float64(h.writeGate.InFlight()) })
	reg.GaugeFunc("http_write_waiting", func() float64 { return float64(h.writeGate.Waiting()) })
	buildinfo.Register(reg)

	events, err := obs.NewEventLog(cfg.EventLogPath, cfg.EventLogBuffer, cfg.EventLogBuffer, logger)
	if err != nil {
		// The event file is telemetry, not correctness: a bad path degrades
		// to the in-memory tail instead of refusing to serve.
		logger.Warn("event log file unavailable, keeping events in memory only",
			"path", cfg.EventLogPath, "err", err)
		events, _ = obs.NewEventLog("", cfg.EventLogBuffer, cfg.EventLogBuffer, logger)
	}
	h.events = events
	reg.CounterFunc("events_recorded_total", func() float64 { return float64(h.events.Recorded()) })
	reg.CounterFunc("events_written_total", func() float64 { return float64(h.events.Written()) })
	reg.CounterFunc("events_dropped_total", func() float64 { return float64(h.events.Dropped()) })
	reg.CounterFunc("events_write_errors_total", func() float64 { return float64(h.events.WriteErrors()) })

	if cfg.SelfMetricsInterval != 0 {
		h.sampler = history.New(history.Config{
			Registry: reg,
			Sink:     e,
			Interval: cfg.SelfMetricsInterval,
			Logger:   logger,
		})
		if cfg.SelfMetricsInterval > 0 {
			h.sampler.Start()
		}
	}

	h.handle("/", h.ui)
	h.handle("/healthz", h.health)
	h.handle("/series", h.series)
	h.handle("/query", h.gated(h.query))
	h.handle("/render", h.gated(h.render))
	h.handle("/write", h.admitted(h.writeGate, h.write))
	h.handle("/dashboard", h.dashboard)
	h.handle("/metrics", h.metrics)
	h.handle("/varz", h.varz)
	h.handle("/debug/slowlog", h.slowlog)
	h.handle("/debug/events", h.debugEvents)
	h.handle("/admin/backup", h.adminBackup)
	h.handle("/admin/scrub", h.adminScrub)
	return h
}

// Close stops the handler's background machinery: the self-metrics sampler
// (if any) and the wide-event writer, draining buffered events to the log
// file. The engine is not closed — the caller owns it. Idempotent.
func (h *Handler) Close() error {
	if h.sampler != nil {
		h.sampler.Stop()
	}
	return h.events.Close()
}

// Sampler returns the self-metrics sampler (nil when disabled); tests and
// the exper sweep drive SampleOnce directly through it.
func (h *Handler) Sampler() *history.Sampler { return h.sampler }

// Events returns the wide-event log.
func (h *Handler) Events() *obs.EventLog { return h.events }

// gated wraps a query-class endpoint with admission control and the default
// per-query budget. Introspection endpoints (health, metrics, slowlog) stay
// ungated so operators can always see an overloaded server.
func (h *Handler) gated(fn http.HandlerFunc) http.HandlerFunc {
	return h.admitted(h.gate, func(w http.ResponseWriter, r *http.Request) {
		fn(w, r.WithContext(govern.WithLimits(r.Context(), h.limits)))
	})
}

// admitted wraps an endpoint with one gate's admission control (queries and
// writes each have their own, so neither class can starve the other). Shed
// requests answer 429 with Retry-After; a client that disconnects while
// queued gets 503 and is not counted as shed.
func (h *Handler) admitted(gate *govern.Gate, fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		release, err := gate.Acquire(r.Context())
		if err != nil {
			// Rejected before the endpoint ran: the endpoint cannot emit its
			// wide event, so the gate does — every query-class request
			// produces exactly one event, shed or served.
			ev := obs.Event{When: time.Now(), Endpoint: r.URL.Path,
				RequestID: w.Header().Get("X-Request-ID"), Error: err.Error()}
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				ev.Status = http.StatusServiceUnavailable
				h.events.Record(ev)
				httpError(w, http.StatusServiceUnavailable, err)
				return
			}
			retry := time.Second
			var oe *govern.OverloadError
			if errors.As(err, &oe) {
				retry = oe.RetryAfter
			}
			w.Header().Set("Retry-After", strconv.Itoa(int((retry+time.Second-1)/time.Second)))
			w.Header().Set("X-M4-Error", "overloaded")
			ev.Status = http.StatusTooManyRequests
			h.events.Record(ev)
			httpError(w, http.StatusTooManyRequests, err)
			return
		}
		defer release()
		fn(w, r)
	}
}

// mapQueryError classifies operator and engine errors that deserve a
// specific status code and X-M4-Error header; (0, "") leaves the decision
// to the endpoint (400 for /query parse errors, 500 for /render internals).
func mapQueryError(err error) (code int, kind string) {
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable, "canceled"
	case errors.Is(err, govern.ErrBudgetExceeded):
		return http.StatusServiceUnavailable, "budget-exceeded"
	case errors.Is(err, govern.ErrOverloaded):
		return http.StatusTooManyRequests, "overloaded"
	case errors.Is(err, lsm.ErrReadOnly):
		return http.StatusServiceUnavailable, "read-only"
	case errors.Is(err, lsm.ErrIngestBackpressure):
		return http.StatusTooManyRequests, "backpressure"
	}
	return 0, ""
}

// writeMappedError answers a classified error: the X-M4-Error header names
// the condition machine-readably, and retryable conditions (overload,
// read-only disk) carry a Retry-After hint.
func writeMappedError(w http.ResponseWriter, code int, kind string, err error) {
	w.Header().Set("X-M4-Error", kind)
	if kind == "overloaded" || kind == "read-only" || kind == "backpressure" {
		w.Header().Set("Retry-After", "1")
	}
	httpError(w, code, err)
}

// Metrics returns the registry the handler reports into.
func (h *Handler) Metrics() *obs.Registry { return h.reg }

// SlowLog returns the slow-query ring buffer.
func (h *Handler) SlowLog() *obs.SlowLog { return h.slowLog }

// statusWriter records the response status for metrics and logs.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// handle wraps an endpoint with the request middleware: a request id, a
// request-scoped logger on the context, per-endpoint request/latency
// metrics by status class, and debug-level access logging.
func (h *Handler) handle(pattern string, fn http.HandlerFunc) {
	h.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqID := obs.NewTraceID()
		logger := h.log.With("reqID", reqID, "endpoint", pattern)
		ctx := obs.WithLogger(r.Context(), logger)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		sw.Header().Set("X-Request-ID", reqID)
		fn(sw, r.WithContext(ctx))
		elapsed := time.Since(start)
		class := strconv.Itoa(sw.code/100) + "xx"
		h.reg.Counter("http_requests_total", "endpoint", pattern, "class", class).Inc()
		h.reg.Histogram("http_request_seconds", "endpoint", pattern).Observe(elapsed.Seconds())
		level := slog.LevelDebug
		if sw.code >= 500 {
			level = slog.LevelWarn
		}
		logger.Log(r.Context(), level, "request",
			"method", r.Method, "status", sw.code, "elapsed", elapsed)
	})
}

// ServeHTTP implements http.Handler. Handler panics are recovered: the
// connection answers 500 instead of taking the whole server down.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if rec := recover(); rec != nil {
			h.log.Error("panic serving request",
				"method", r.Method, "path", r.URL.Path, "panic", rec, "stack", string(debug.Stack()))
			h.reg.Counter("http_panics_total").Inc()
			// Best effort: if the handler already wrote a status this
			// is a no-op on the status line.
			httpError(w, http.StatusInternalServerError, fmt.Errorf("internal error"))
		}
	}()
	h.mux.ServeHTTP(w, r)
}

// writeJSON encodes v as the response body. Encode failures after the
// header is out cannot reach the client; they are logged instead of
// silently dropped.
func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		slog.Default().Warn("m4server: write response", "err", err)
	}
}

func (h *Handler) health(w http.ResponseWriter, _ *http.Request) {
	info := h.engine.Info()
	status := "ok"
	if info.BadFiles > 0 || info.QuarantinedChunks > 0 || info.WALQuarantinedSegments > 0 {
		status = "degraded"
	}
	if info.ReadOnly {
		// Disk-full degradation outranks quarantine noise: writes are
		// refused until the engine's space probe sees room again.
		status = "read-only"
	}
	version, revision := buildinfo.Info()
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"status":            status,
		"files":             info.Files,
		"chunks":            info.Chunks,
		"badFiles":          info.BadFiles,
		"quarantinedChunks": info.QuarantinedChunks,
		"readOnly":          info.ReadOnly,
		"readOnlyReason":    info.ReadOnlyReason,
		"uptimeSeconds":     time.Since(h.start).Seconds(),
		"goVersion":         runtime.Version(),
		"goroutines":        runtime.NumGoroutine(),
		"version":           version,
		"revision":          revision,
		"wal": map[string]interface{}{
			"segments":            info.WALSegments,
			"bytes":               info.WALBytes,
			"retiredSegments":     info.WALRetiredSegments,
			"retiredBytes":        info.WALRetiredBytes,
			"tornTruncations":     info.WALTornTruncations,
			"quarantinedSegments": info.WALQuarantinedSegments,
			"warnings":            info.WALWarnings,
		},
		"scrub": map[string]interface{}{
			"runs":          info.ScrubRuns,
			"chunksScanned": info.ScrubChunksScanned,
			"quarantines":   info.ScrubQuarantines,
			"errors":        info.ScrubErrors,
		},
		"backup": map[string]interface{}{
			"runs":     info.BackupRuns,
			"lastUnix": info.LastBackupUnix,
		},
	})
}

// adminBackup takes an online backup into the directory named by the dir
// query parameter (a path on the server's filesystem). POST only: a backup
// writes outside the database directory.
func (h *Handler) adminBackup(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		httpError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	dir := r.URL.Query().Get("dir")
	if dir == "" {
		httpError(w, http.StatusBadRequest, errors.New("dir parameter required"))
		return
	}
	man, err := h.engine.Backup(dir)
	if err != nil {
		if code, kind := mapQueryError(err); code != 0 {
			writeMappedError(w, code, kind, err)
			return
		}
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"dir":      dir,
		"manifest": man,
	})
}

// adminScrub runs one on-demand integrity pass. Optional query parameters:
// heal=true compacts quarantined chunks away, maxChunks bounds the pass's
// I/O (the next pass resumes at the cursor).
func (h *Handler) adminScrub(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		httpError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	var opts lsm.ScrubOptions
	q := r.URL.Query()
	opts.Heal = q.Get("heal") == "true"
	if v := q.Get("maxChunks"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 1 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad maxChunks %q", v))
			return
		}
		opts.Limits.MaxChunks = n
	}
	rep, err := h.engine.Scrub(opts)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (h *Handler) series(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, h.engine.SeriesIDs())
}

// metrics renders the registry in the Prometheus text exposition format.
func (h *Handler) metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := h.reg.WritePrometheus(w); err != nil {
		slog.Default().Warn("m4server: write metrics", "err", err)
	}
}

// varz renders the registry as JSON for humans and scripts.
func (h *Handler) varz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, h.reg.Snapshot())
}

// slowlog renders the slow-query ring buffer, newest first. The header
// carries the estimated p50/p95/p99 of the /query latency histogram so an
// operator sees "slow relative to what" next to the outliers; entries link
// into /debug/events by request id.
func (h *Handler) slowlog(w http.ResponseWriter, _ *http.Request) {
	qs := h.reg.Histogram("http_request_seconds", "endpoint", "/query").Quantiles(0.50, 0.95, 0.99)
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"thresholdNs": h.slowLog.Threshold().Nanoseconds(),
		"latencySeconds": map[string]float64{
			"p50": qs[0], "p95": qs[1], "p99": qs[2],
		},
		"entries": h.slowLog.Entries(),
	})
}

// debugEvents renders the in-memory tail of the wide-event query log,
// newest first, with the writer's accounting (a non-zero dropped count
// means the JSONL file has holes — the buffer is bounded by design).
func (h *Handler) debugEvents(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"recorded": h.events.Recorded(),
		"written":  h.events.Written(),
		"dropped":  h.events.Dropped(),
		"events":   h.events.Recent(),
	})
}

// query executes an m4ql statement. The statement comes from the "q" URL
// parameter (GET) or a JSON body {"query": "..."} (POST). ?trace=1 (or a
// TRACE clause in the statement) attaches a structured execution trace to
// the result. The request context cancels the query when the client
// disconnects; every execution is considered for the slow-query log.
// finishEvent stamps the response status and elapsed time onto a wide
// event and records it; deferred by the query-class endpoints so exactly
// one event leaves per request, whatever path the handler took.
func (h *Handler) finishEvent(w http.ResponseWriter, ev *obs.Event) {
	ev.ElapsedNs = time.Since(ev.When).Nanoseconds()
	if sw, ok := w.(*statusWriter); ok {
		ev.Status = sw.code
	}
	h.events.Record(*ev)
}

// eventStats copies a query's cost counters into its wide event.
func eventStats(ev *obs.Event, s storage.Stats) {
	ev.ChunksLoaded = s.ChunksLoaded
	ev.TimeBlocksLoaded = s.TimeBlocksLoaded
	ev.BytesRead = s.BytesRead
	ev.PointsDecoded = s.PointsDecoded
	ev.CacheHits = s.CacheHits
	ev.CacheMisses = s.CacheMisses
	ev.PyramidSpans = s.PyramidSpans
	ev.PyramidCells = s.PyramidCells
	ev.PyramidFallbackSpans = s.PyramidFallbackSpans
}

func (h *Handler) query(w http.ResponseWriter, r *http.Request) {
	ev := &obs.Event{When: time.Now(), Endpoint: "/query", RequestID: w.Header().Get("X-Request-ID")}
	defer h.finishEvent(w, ev)
	var q string
	switch r.Method {
	case http.MethodGet:
		q = r.URL.Query().Get("q")
	case http.MethodPost:
		r.Body = http.MaxBytesReader(w, r.Body, h.maxBody)
		var body struct {
			Query string `json:"query"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				httpError(w, http.StatusBadRequest, fmt.Errorf("request body exceeds %d bytes", mbe.Limit))
				return
			}
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
		q = body.Query
	default:
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET or POST"))
		return
	}
	if q == "" {
		httpError(w, http.StatusBadRequest, fmt.Errorf("missing query"))
		return
	}
	ev.Statement = q
	ctx := r.Context()
	if traceOn(r.URL.Query().Get("trace")) {
		ctx, _ = obs.WithTrace(ctx)
	}
	start := time.Now()
	res, err := m4ql.RunContext(ctx, h.engine, q)
	elapsed := time.Since(start)
	entry := obs.SlowEntry{
		When:      start,
		RequestID: w.Header().Get("X-Request-ID"),
		Query:     q,
		ElapsedNs: elapsed.Nanoseconds(),
	}
	if err != nil {
		entry.Error = err.Error()
		ev.Error = err.Error()
		if code, kind := mapQueryError(err); code != 0 {
			entry.Status = code
			h.slowLog.Record(entry)
			writeMappedError(w, code, kind, err)
			return
		}
		entry.Status = http.StatusBadRequest
		h.slowLog.Record(entry)
		httpError(w, http.StatusBadRequest, err)
		return
	}
	entry.Status = http.StatusOK
	entry.Partial = res.Partial
	h.slowLog.Record(entry)
	ev.Operator = res.Operator
	ev.Partial = res.Partial
	ev.Warnings = len(res.Warnings)
	eventStats(ev, res.Stats)
	if res.Trace != nil {
		ev.TraceID = res.Trace.ID
		ev.Phases = res.Trace.Phases
	}
	if res.Partial {
		obs.Logger(ctx).Warn("partial query result", "warnings", len(res.Warnings))
	}
	writeJSON(w, http.StatusOK, res)
}

// traceOn interprets the ?trace= parameter ("1", "true", ... arm tracing).
func traceOn(v string) bool {
	on, err := strconv.ParseBool(v)
	return err == nil && on
}

// expandSeriesParam turns the "series" URL parameter into concrete series
// ids: a comma-separated list passes through in order, and a trailing "*"
// expands as a prefix wildcard against the engine's sorted series ids (bare
// "*" matches everything). An empty expansion returns nil.
func (h *Handler) expandSeriesParam(param string) ([]string, error) {
	if strings.HasSuffix(param, "*") {
		prefix := strings.TrimSuffix(param, "*")
		if strings.Contains(prefix, ",") {
			return nil, fmt.Errorf("a series wildcard cannot be combined with a list")
		}
		var ids []string
		for _, id := range h.engine.SeriesIDs() {
			if strings.HasPrefix(id, prefix) {
				ids = append(ids, id)
			}
		}
		return ids, nil
	}
	var ids []string
	seen := map[string]bool{}
	for _, id := range strings.Split(param, ",") {
		if id == "" || seen[id] {
			continue
		}
		seen[id] = true
		ids = append(ids, id)
	}
	return ids, nil
}

// render draws a two-color PNG line chart over a time range. Parameters:
// series (one id, a comma-separated list, or a prefix wildcard like
// "root.*" — multiple series overlay on one canvas with a shared
// viewport), tqs, tqe, w (pixel columns = M4 spans), h (pixel rows,
// default 400), repr (representation operator: m4 — the default —, minmax,
// lttb or minmaxlttb), and ratio (MinMaxLTTB preselection ratio, 2..64).
// When nothing matches the request answers 404. When the result is partial
// — unreadable chunks skipped at snapshot time, or the operator
// substituted FP for a representation point lost to a mid-query chunk
// failure — the image still renders, the response carries an X-M4-Partial
// header counting the warnings, and render_partial_total is incremented.
func (h *Handler) render(w http.ResponseWriter, r *http.Request) {
	ev := &obs.Event{When: time.Now(), Endpoint: "/render", RequestID: w.Header().Get("X-Request-ID")}
	defer h.finishEvent(w, ev)
	params := r.URL.Query()
	ev.Statement = "series=" + params.Get("series") + " tqs=" + params.Get("tqs") +
		" tqe=" + params.Get("tqe") + " w=" + params.Get("w") + " h=" + params.Get("h")
	if rp := params.Get("repr"); rp != "" {
		ev.Statement += " repr=" + rp
	}
	seriesParam := params.Get("series")
	if seriesParam == "" {
		httpError(w, http.StatusBadRequest, fmt.Errorf("missing series parameter"))
		return
	}
	tqs, err1 := strconv.ParseInt(params.Get("tqs"), 10, 64)
	tqe, err2 := strconv.ParseInt(params.Get("tqe"), 10, 64)
	width, err3 := strconv.Atoi(params.Get("w"))
	if err1 != nil || err2 != nil || err3 != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("tqs, tqe and w must be integers"))
		return
	}
	height := 400
	if hs := params.Get("h"); hs != "" {
		var err error
		if height, err = strconv.Atoi(hs); err != nil || height <= 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad h parameter"))
			return
		}
	}
	specText := params.Get("repr")
	if specText == "" {
		specText = "m4"
	}
	if ratio := params.Get("ratio"); ratio != "" {
		if !strings.EqualFold(specText, "minmaxlttb") {
			httpError(w, http.StatusBadRequest, fmt.Errorf("ratio only applies to repr=minmaxlttb"))
			return
		}
		specText += ":" + ratio
	}
	spec, err := reprops.ParseSpec(specText)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	q := m4.Query{Tqs: tqs, Tqe: tqe, W: width}
	if err := q.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	ids, err := h.expandSeriesParam(seriesParam)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	for _, id := range ids {
		if !h.engine.HasSeries(id) {
			httpError(w, http.StatusNotFound, fmt.Errorf("series %q not found", id))
			return
		}
	}
	if len(ids) == 0 {
		httpError(w, http.StatusNotFound, fmt.Errorf("no series match %q", seriesParam))
		return
	}
	// The request is a REPRESENT statement over the series list; it runs
	// through the one read path under the budget gated() put on the context.
	outs, err := m4ql.Read(r.Context(), h.engine, m4ql.Statement{Series: ids, Query: q, Represent: &spec})
	if spec.Kind == reprops.KindM4 {
		ev.Operator = "lsm"
	} else {
		ev.Operator = spec.Kind.String()
	}
	if err != nil {
		ev.Error = err.Error()
		if code, kind := mapQueryError(err); code != 0 {
			writeMappedError(w, code, kind, err)
			return
		}
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	var cost storage.Stats
	// Warnings cover both snapshot-time quarantines and operator-level
	// degradation (FP substitution).
	warnings := 0
	reduced := make([]series.Series, len(outs))
	for i, o := range outs {
		cost.Add(o.Stats)
		warnings += len(o.Warnings)
		reduced[i] = o.Points
	}
	eventStats(ev, cost)
	vp := viz.ViewportForAll(reduced, tqs, tqe)
	canvas := viz.NewCanvas(width, height)
	for _, s := range reduced {
		viz.RasterizeOnto(canvas, s, vp)
	}
	if warnings > 0 {
		w.Header().Set("X-M4-Partial", strconv.Itoa(warnings))
		h.renderPartial.Inc()
		ev.Partial = true
		ev.Warnings = warnings
		obs.Logger(r.Context()).Warn("partial render", "series", seriesParam, "warnings", warnings)
	}
	w.Header().Set("Content-Type", "image/png")
	if err := canvas.WritePNG(w); err != nil {
		obs.Logger(r.Context()).Warn("write png", "err", err)
	}
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
