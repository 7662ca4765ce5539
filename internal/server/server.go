// Package server exposes the database over HTTP: m4ql queries as JSON, a
// PNG line-chart renderer backed by the M4 operator (what a dashboard
// would call), ingestion, and introspection endpoints — health, metrics
// (Prometheus text and JSON), the wide-event tail and the slow log.
// cmd/m4server wires it to a database directory.
//
// /query and /render are one pipeline: each turns its request into an
// m4ql.Statement, and serve runs it, maps its errors, fills the wide event
// and hands the outcome to the endpoint's encoder (JSON rows or a PNG).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"runtime/debug"
	"strconv"
	"time"

	"m4lsm/internal/buildinfo"
	"m4lsm/internal/govern"
	"m4lsm/internal/lsm"
	"m4lsm/internal/m4ql"
	"m4lsm/internal/obs"
	"m4lsm/internal/obs/history"
)

// Config tunes the handler's observability plumbing; the zero value is
// production-reasonable.
type Config struct {
	// Logger receives request and error logs; nil uses slog.Default().
	Logger *slog.Logger
	// SlowQueryThreshold is the minimum request latency recorded in the
	// slow log, for every evented endpoint (default 100ms; negative records
	// every request).
	SlowQueryThreshold time.Duration

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

	// EventLogPath, when set, appends one JSONL wide event per /query,
	// /render and /write request to this file. The in-memory tails behind
	// /debug/events and /debug/slowlog are kept either way.
	EventLogPath string
}

// Handler serves the HTTP API for one engine.
type Handler struct {
	engine *lsm.Engine
	mux    *http.ServeMux
	reg    *obs.Registry
	log    *slog.Logger
	start  time.Time

	gate      *govern.Gate  // query-class admission; nil: off
	writeGate *govern.Gate  // /write admission; nil: off
	limits    govern.Limits // default per-query budget (zero: unbudgeted)
	maxBody   int64

	events  *obs.EventLog    // wide-event request log and slow tail (always on)
	sampler *history.Sampler // nil: self-metrics off

	renderPartial *obs.Counter
}

// eventBuffer is the capacity of the event log's channel and of each of its
// in-memory tails: a full channel drops events and counts them, never
// blocking the request path.
const eventBuffer = 256

// NewWith builds the HTTP handler. The metrics registry is the engine's
// (so /metrics exposes engine and operator series next to the HTTP
// ones); an engine opened without one gets a handler-local registry, which
// then carries only HTTP and operator metrics.
func NewWith(e *lsm.Engine, cfg Config) *Handler {
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	threshold := orDefault(cfg.SlowQueryThreshold, 100*time.Millisecond)
	wait := orDefault(cfg.QueryQueueWait, time.Second)
	writeWait := orDefault(cfg.WriteQueueWait, time.Second)
	reg := e.Metrics()
	if reg == nil {
		reg = obs.NewRegistry()
	}
	maxBody := cfg.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = 1 << 20
	}
	h := &Handler{
		engine:        e,
		mux:           http.NewServeMux(),
		reg:           reg,
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

	events, err := obs.NewEventLog(cfg.EventLogPath, eventBuffer, eventBuffer, threshold, logger)
	if err != nil {
		// The event file is telemetry, not correctness: a bad path degrades
		// to the in-memory tail instead of refusing to serve.
		logger.Warn("event log file unavailable, keeping events in memory only",
			"path", cfg.EventLogPath, "err", err)
		events, _ = obs.NewEventLog("", eventBuffer, eventBuffer, threshold, logger)
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

// orDefault reads a duration knob: 0 means def, negative means none (0).
func orDefault(d, def time.Duration) time.Duration {
	if d == 0 {
		return def
	}
	return max(d, 0)
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
			ev := obs.Event{When: time.Now(), Endpoint: r.URL.Path, Status: http.StatusServiceUnavailable,
				RequestID: w.Header().Get("X-Request-ID"), Error: err.Error()}
			if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
				retry := time.Second
				var oe *govern.OverloadError
				if errors.As(err, &oe) {
					retry = oe.RetryAfter
				}
				w.Header().Set("Retry-After", strconv.Itoa(int((retry+time.Second-1)/time.Second)))
				w.Header().Set("X-M4-Error", "overloaded")
				ev.Status = http.StatusTooManyRequests
			}
			h.events.Record(ev)
			httpError(w, ev.Status, err)
			return
		}
		defer release()
		fn(w, r)
	}
}

// mapQueryError classifies operator and engine errors that deserve a
// specific status code and X-M4-Error header; (0, "") leaves the decision
// to the endpoint (serve's fallback: 400 for /query, 500 for /render).
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
	case errors.Is(err, m4ql.ErrTooManySpans):
		return http.StatusBadRequest, "too-many-spans"
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

// finishEvent stamps the response status and elapsed time onto a wide
// event and records it; deferred by the evented endpoints so exactly one
// event leaves per request, whatever path the handler took.
func (h *Handler) finishEvent(w http.ResponseWriter, ev *obs.Event) {
	ev.ElapsedNs = time.Since(ev.When).Nanoseconds()
	if sw, ok := w.(*statusWriter); ok {
		ev.Status = sw.code
	}
	h.events.Record(*ev)
}

// serve is the query-class pipeline after an endpoint has turned its
// request into a statement: the statement runs through the one read path,
// an execution error is mapped to its status (fallback when mapQueryError
// has none), and the wide event gets the operator, partial flag, warnings,
// cost counters and trace. encode then writes the answer, and once it has,
// the outcome's points and aggregates go back to the operator's pools: the
// request owns them, and nothing reads them after the response.
func (h *Handler) serve(w http.ResponseWriter, r *http.Request, ev *obs.Event, stmt m4ql.Statement,
	fallback int, encode func(http.ResponseWriter, *m4ql.Outcome)) {
	ctx := r.Context()
	out, err := m4ql.Exec(ctx, h.engine, stmt)
	if err != nil {
		ev.Error = err.Error()
		if code, kind := mapQueryError(err); code != 0 {
			writeMappedError(w, code, kind, err)
			return
		}
		httpError(w, fallback, err)
		return
	}
	defer out.Release()
	ev.Operator = out.Operator
	ev.Partial = out.Partial
	ev.Warnings = len(out.Warnings)
	ev.ChunksLoaded = out.Stats.ChunksLoaded
	ev.TimeBlocksLoaded = out.Stats.TimeBlocksLoaded
	ev.BytesRead = out.Stats.BytesRead
	ev.PointsDecoded = out.Stats.PointsDecoded
	ev.PyramidSpans = out.Stats.PyramidSpans
	ev.PyramidCells = out.Stats.PyramidCells
	ev.PyramidFallbackSpans = out.Stats.PyramidFallbackSpans
	if out.Trace != nil {
		ev.TraceID = out.Trace.ID
		ev.Phases = out.Trace.Phases
	}
	if out.Partial {
		obs.Logger(ctx).Warn("partial result", "warnings", len(out.Warnings))
	}
	encode(w, out)
}

// query executes an m4ql statement. The statement comes from the "q" URL
// parameter (GET) or a JSON body {"query": "..."} (POST). ?trace=1 (or a
// TRACE clause in the statement) attaches a structured execution trace to
// the result. The request context cancels the query when the client
// disconnects. An execution error no status is mapped to answers 400.
func (h *Handler) query(w http.ResponseWriter, r *http.Request) {
	ev := &obs.Event{When: time.Now(), Endpoint: "/query", RequestID: w.Header().Get("X-Request-ID")}
	defer h.finishEvent(w, ev)
	params := r.URL.Query()
	var q string
	switch r.Method {
	case http.MethodGet:
		q = params.Get("q")
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
	stmt, err := m4ql.ParseQuery(q)
	if err != nil {
		ev.Error = err.Error()
		httpError(w, http.StatusBadRequest, err)
		return
	}
	stmt.Trace = stmt.Trace || traced(params)
	h.serve(w, r, ev, stmt, http.StatusBadRequest, func(w http.ResponseWriter, out *m4ql.Outcome) {
		writeJSON(w, http.StatusOK, out.Result())
	})
}

// traced reports whether a request's ?trace= parameter ("1", "true", ...)
// arms an execution trace.
func traced(params url.Values) bool {
	on, err := strconv.ParseBool(params.Get("trace"))
	return err == nil && on
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
