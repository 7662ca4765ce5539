package main

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"m4lsm/internal/lsm"
	"m4lsm/internal/obs"
	"m4lsm/internal/server"
)

// engineConfig holds the three engine settings the workloads differ in.
// Everything else is the m4server default: one shard, flush threshold 1000,
// Gorilla codec, chunk cache off, admission gates off.
type engineConfig struct {
	pyramid bool
	wal     bool
	syncWAL bool
}

func (c engineConfig) options(dir string, reg *obs.Registry) lsm.Options {
	return lsm.Options{Dir: dir, Metrics: reg, DisablePyramid: !c.pyramid, DisableWAL: !c.wal, SyncWAL: c.syncWAL}
}

// env is one engine behind one loopback HTTP listener, plus the single
// client every request of a run goes through.
type env struct {
	cfg    engineConfig
	dir    string
	reg    *obs.Registry
	eng    *lsm.Engine
	h      *server.Handler
	srv    *http.Server
	served chan error
	base   string
	client *http.Client
}

// openEnv opens (or reopens) the engine in dir. Nothing is served yet.
func openEnv(dir string, cfg engineConfig) (*env, error) {
	reg := obs.NewRegistry()
	eng, err := lsm.Open(cfg.options(dir, reg))
	if err != nil {
		return nil, fmt.Errorf("open engine in %s: %w", dir, err)
	}
	return &env{cfg: cfg, dir: dir, reg: reg, eng: eng}, nil
}

// serve puts the m4server handler, or the handler build returns, on a
// loopback listener. conns bounds the client's connections; sampler is the
// self-metrics period (m4server's default is one second, 0 turns it off).
func (e *env) serve(conns int, sampler time.Duration, build func(*server.Handler) http.Handler) error {
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))
	e.h = server.NewWith(e.eng, server.Config{Logger: logger, SelfMetricsInterval: sampler})
	var handler http.Handler = e.h
	if build != nil {
		handler = build(e.h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	e.srv = &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	e.served = make(chan error, 1)
	go func() { e.served <- e.srv.Serve(ln) }()
	e.base = "http://" + ln.Addr().String()
	e.client = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
	return nil
}

// stopServing closes the listener and the handler's background machinery
// and waits for the serving goroutine. The engine stays open.
func (e *env) stopServing() {
	if e.srv == nil {
		return
	}
	e.client.CloseIdleConnections()
	e.srv.Close()
	<-e.served
	e.h.Close()
	e.srv, e.h = nil, nil
}

// close stops serving and closes the engine, flushing its memtables.
func (e *env) close() error {
	e.stopServing()
	return e.eng.Close()
}

// kill stops serving and abandons the engine the way a process kill would.
func (e *env) kill() {
	e.stopServing()
	e.eng.Kill()
}

// httpMethod is how r goes over HTTP: writes are POSTed, reads are GETs.
func httpMethod(r *request) (string, io.Reader) {
	if r.kind == kindWrite {
		return http.MethodPost, bytes.NewReader(r.body)
	}
	return http.MethodGet, nil
}

// do sends one request and returns the response body of a 200.
func (e *env) do(r *request) ([]byte, error) {
	method, reqBody := httpMethod(r)
	req, err := http.NewRequest(method, e.base+r.url, reqBody)
	if err != nil {
		return nil, err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", r.url, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// counter reads one counter or gauge of the engine's registry by its
// exposition key, e.g. `m4_chunks_loaded_total{op="lsm"}`; absent reads 0.
func counter(snap map[string]interface{}, key string) float64 {
	switch v := snap[key].(type) {
	case int64:
		return float64(v)
	case float64:
		return v
	}
	return 0
}

// dirBytes sums the regular files under dir whose name keep accepts.
func dirBytes(dir string, keep func(name string) bool) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !keep(d.Name()) {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

func anyFile(string) bool { return true }

// copyDir copies the regular files under src to the new directory dst, each
// as far as it has been written.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(filepath.Join(dst, rel))
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return fmt.Errorf("copy %s: %w", path, err)
		}
		return out.Close()
	})
}

// cpuTime is the user plus system time the process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocatedBytes is the allocator's running total. Reading it stops the
// world: keep it out of anything timed.
func allocatedBytes() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}
