// The introspection and admin endpoints: health, the series list, metrics
// (Prometheus text and JSON), the slow log and event tail, online backup and
// the on-demand scrub. None is gated, so an overloaded server stays
// observable.
package server

import (
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"m4lsm/internal/buildinfo"
	"m4lsm/internal/lsm"
)

func (h *Handler) health(w http.ResponseWriter, _ *http.Request) {
	info := h.engine.Info()
	status := "ok"
	if info.BadFiles > 0 || info.QuarantinedChunks > 0 {
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
		"warnings":          info.RecoveryWarnings,
		"uptimeSeconds":     time.Since(h.start).Seconds(),
		"goVersion":         runtime.Version(),
		"goroutines":        runtime.NumGoroutine(),
		"version":           version,
		"revision":          revision,
		"wal": map[string]interface{}{
			"bytes":           info.WALBytes,
			"retiredBytes":    info.WALRetiredBytes,
			"tornTruncations": info.WALTornTruncations,
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

// slowlog renders the event log's slow tail: the most recent wide events of
// any endpoint at or above the slow threshold, newest first. The header
// carries the estimated p50/p95/p99 of the /query latency histogram so an
// operator sees "slow relative to what" next to the outliers; entries link
// into /debug/events by request id.
func (h *Handler) slowlog(w http.ResponseWriter, _ *http.Request) {
	qs := h.reg.Histogram("http_request_seconds", "endpoint", "/query").Quantiles(0.50, 0.95, 0.99)
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"thresholdNs": h.events.SlowThreshold().Nanoseconds(),
		"latencySeconds": map[string]float64{
			"p50": qs[0], "p95": qs[1], "p99": qs[2],
		},
		"entries": h.events.Slow(),
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
