// Command m4server serves a database directory over HTTP.
//
// Endpoints:
//
//	GET  /healthz                         engine status, uptime, build info
//	GET  /series                          stored series ids
//	GET  /query?q=<m4ql>[&trace=1]        run an M4 query, JSON result
//	POST /query {"query": "<m4ql>"}       same, query in the body
//	POST /write                           batched ingestion; text body, one
//	                                      "series t v" point per line
//	GET  /render?series=&tqs=&tqe=&w=&h=  two-color PNG line chart; series
//	                                      accepts a comma list or a prefix
//	                                      wildcard ("root.*") overlaid on
//	                                      one canvas; [&trace=1] as /query
//	GET  /metrics                         Prometheus text exposition
//	GET  /varz                            the same registry as JSON
//	GET  /dashboard                       self-observability charts, M4-rendered
//	                                      from the root.sys.* metric history
//	GET  /debug/slowlog                   wide events at or above the minimum
//	                                      request latency (-slow-query)
//	GET  /debug/events                    wide per-request event tail (JSON)
//	POST /admin/backup?dir=<dest>         online backup into <dest>
//	POST /admin/scrub[?heal=true]         on-demand integrity scrub pass
//
// Example:
//
//	m4server -dir ./db -addr :8086
//	curl 'localhost:8086/query?q=SELECT+M4(*)+FROM+s+WHERE+time+>=+0+AND+time+<+1000+GROUP+BY+SPANS(100)&trace=1'
//	curl 'localhost:8086/metrics'
//
// With -debug-addr set, a second listener exposes net/http/pprof and
// expvar on a separate address (keep it private):
//
//	m4server -dir ./db -debug-addr localhost:6060
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=10
//
// Writes land in one write-ahead log file in -dir (wal.log) before they
// are acknowledged, fsynced first under -sync-wal; every flush truncates
// it to empty, so a restart replays only the writes since the last flush.
// A -dir an older build wrote (wal-<seq>.log segments) is refused.
//
// Each request class has one admission control. /query and /render pass
// the query gate (-query-slots, -query-queue, -queue-wait): a request past
// its queue is shed with 429, Retry-After and X-M4-Error: overloaded, and
// -query-timeout, -max-chunks-per-query and -max-points-per-query are the
// defaults every statement's budget starts from. /write is admitted by the
// engine's ingest queue alone (-ingest-queue-points, -ingest-enqueue-wait):
// a write that finds it full past the wait answers 429 with Retry-After
// and X-M4-Error: backpressure. That queue bounds queued points, not the
// bodies being read and parsed: /write memory is up to concurrent writers
// times -max-body-bytes.
//
// The server shuts down gracefully on SIGINT/SIGTERM: in-flight requests
// get a drain window, then the engine is flushed and closed exactly once.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"m4lsm/internal/buildinfo"
	"m4lsm/internal/lsm"
	"m4lsm/internal/obs"
	"m4lsm/internal/server"
)

func main() {
	var (
		dir       = flag.String("dir", "m4db", "database directory")
		addr      = flag.String("addr", ":8086", "listen address")
		debugAddr = flag.String("debug-addr", "", "optional pprof/expvar listen address (e.g. localhost:6060); empty disables")
		drainWait = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain window")
		slowQuery = flag.Duration("slow-query", 100*time.Millisecond, "minimum request latency recorded in /debug/slowlog")
		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn or error")

		queryTimeout = flag.Duration("query-timeout", 0, "default per-query wall-clock budget (a statement TIMEOUT clause overrides it; 0 disables)")
		querySlots   = flag.Int("query-slots", 0, "max concurrently executing /query and /render requests (0 disables admission control)")
		queryQueue   = flag.Int("query-queue", 16, "queued query-class requests beyond the running ones before shedding with 429")
		queueWait    = flag.Duration("queue-wait", time.Second, "max time a queued request waits for a slot before 429 (negative sheds immediately)")
		maxBody      = flag.Int64("max-body-bytes", 1<<20, "request body size bound; oversized bodies answer 400")
		maxChunks    = flag.Int64("max-chunks-per-query", 0, "default cap on physical chunk loads per query (0 = unlimited)")
		maxPoints    = flag.Int64("max-points-per-query", 0, "default cap on decoded points per query (0 = unlimited)")
		pyramid      = flag.Bool("pyramid", true, "maintain the M4 rollup pyramid (precomputed multi-resolution span aggregates); false always computes from chunks")

		syncWAL           = flag.Bool("sync-wal", false, "fsync the WAL before acknowledging writes (one fsync per batch the ingest queue drains, shared by concurrent writers)")
		ingestQueuePoints = flag.Int("ingest-queue-points", 0, "ingest queue cap in points before backpressure (0 = engine default 65536)")
		ingestWait        = flag.Duration("ingest-enqueue-wait", 0, "max time a write blocks on a full ingest queue before the retryable backpressure error (0 = engine default 2s; negative fails immediately)")

		selfMetrics = flag.Duration("self-metrics-interval", time.Second, "period at which the metrics registry is sampled into root.sys.* series inside the engine (0 disables)")
		eventLog    = flag.String("event-log", "", "JSONL file receiving one wide event per /query, /render and /write ('' keeps the tail in memory only, served at /debug/events)")
		version     = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		os.Stdout.WriteString("m4server " + buildinfo.String() + "\n")
		return
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		slog.Error("bad -log-level", "value", *logLevel, "err", err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(logger)

	reg := obs.NewRegistry()
	engine, err := lsm.Open(lsm.Options{Dir: *dir, Metrics: reg, DisablePyramid: !*pyramid,
		SyncWAL:           *syncWAL,
		IngestQueuePoints: *ingestQueuePoints, IngestEnqueueWait: *ingestWait})
	if err != nil {
		logger.Error("open engine", "dir", *dir, "err", err)
		os.Exit(1)
	}

	handler := server.NewWith(engine, server.Config{
		Logger:              logger,
		SlowQueryThreshold:  *slowQuery,
		QuerySlots:          *querySlots,
		QueryQueueDepth:     *queryQueue,
		QueryQueueWait:      *queueWait,
		QueryTimeout:        *queryTimeout,
		MaxChunksPerQuery:   *maxChunks,
		MaxPointsPerQuery:   *maxPoints,
		MaxBodyBytes:        *maxBody,
		SelfMetricsInterval: *selfMetrics,
		EventLogPath:        *eventLog,
	})
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}

	var debugSrv *http.Server
	if *debugAddr != "" {
		debugSrv = &http.Server{Addr: *debugAddr, Handler: debugMux(), ReadHeaderTimeout: 5 * time.Second}
		go func() {
			logger.Info("debug listener", "addr", *debugAddr)
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Warn("debug listener failed", "err", err)
			}
		}()
	}

	errCh := make(chan error, 1)
	go func() {
		logger.Info("serving", "dir", *dir, "addr", *addr)
		errCh <- srv.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)

	select {
	case sig := <-sigCh:
		logger.Info("shutting down", "signal", sig.String())
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Warn("drain", "err", err)
		}
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("serve", "err", err)
		}
	}
	if debugSrv != nil {
		debugSrv.Close()
	}

	// Stop the self-metrics sampler and drain the event log before the
	// engine goes away underneath them.
	if err := handler.Close(); err != nil {
		logger.Warn("close handler", "err", err)
	}

	// Close (flush memtable, release handles) exactly once, after the
	// listener has stopped taking requests.
	if err := engine.Close(); err != nil {
		logger.Error("close engine", "err", err)
		os.Exit(1)
	}
	logger.Info("closed cleanly")
}

// debugMux serves the Go runtime's profiling surface: net/http/pprof and
// expvar, registered explicitly so nothing leaks onto the main listener.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}
