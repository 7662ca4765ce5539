// The /write ingestion endpoint: a line-protocol-ish text body, one point
// per line ("series t v", whitespace-separated; blank lines and #-comments
// skipped), batched per series and handed to Engine.WriteBatch. The body is
// bounded by http.MaxBytesReader, admission runs through the dedicated
// write gate (429 + Retry-After when shedding), engine backpressure maps to
// 429 and disk-full/read-only to 503 — the same typed-error surface /query
// has, so one retry loop serves both directions of the API.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"m4lsm/internal/lsm"
	"m4lsm/internal/obs"
	"m4lsm/internal/series"
)

// maxWriteLineBytes bounds one line of the write body; anything longer is
// malformed input, not data.
const maxWriteLineBytes = 1 << 10

// parseWriteBody parses the /write line protocol into batch entries,
// preserving first-appearance series order and per-series point order.
// Strict by design: unknown field counts, unparsable numbers, NaN/Inf
// values and oversized lines all reject the whole body with a line-numbered
// error — ingestion is all-or-nothing per request, so a client never has to
// guess which half of its batch landed.
func parseWriteBody(r *bufio.Scanner) ([]lsm.BatchEntry, int, error) {
	var order []string
	points := map[string]series.Series{}
	total := 0
	line := 0
	for r.Scan() {
		line++
		text := strings.TrimSpace(r.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 3 {
			return nil, 0, fmt.Errorf("line %d: want \"series t v\", got %d fields", line, len(fields))
		}
		id := fields[0]
		t, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, 0, fmt.Errorf("line %d: bad timestamp %q", line, fields[1])
		}
		v, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, 0, fmt.Errorf("line %d: bad value %q", line, fields[2])
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, 0, fmt.Errorf("line %d: non-finite value %q", line, fields[2])
		}
		if _, seen := points[id]; !seen {
			order = append(order, id)
		}
		points[id] = append(points[id], series.Point{T: t, V: v})
		total++
	}
	if err := r.Err(); err != nil {
		return nil, 0, err
	}
	if total == 0 {
		return nil, 0, errors.New("empty body: no points")
	}
	entries := make([]lsm.BatchEntry, 0, len(order))
	for _, id := range order {
		entries = append(entries, lsm.BatchEntry{SeriesID: id, Points: points[id]})
	}
	return entries, total, nil
}

// write ingests one batch. POST only; the response reports how many points
// and series landed — by the time it is written, every one of them is
// durable per the engine's ack ⇒ synced contract.
func (h *Handler) write(w http.ResponseWriter, r *http.Request) {
	ev := &obs.Event{When: time.Now(), Endpoint: "/write", RequestID: w.Header().Get("X-Request-ID")}
	defer h.finishEvent(w, ev)
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		httpError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	body := http.MaxBytesReader(w, r.Body, h.maxBody)
	sc := bufio.NewScanner(body)
	// The initial capacity must stay below the cap: bufio takes the larger
	// of the two as the real token limit.
	sc.Buffer(make([]byte, 0, 256), maxWriteLineBytes)
	entries, total, err := parseWriteBody(sc)
	if err != nil {
		ev.Error = err.Error()
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			httpError(w, http.StatusBadRequest, fmt.Errorf("request body exceeds %d bytes", mbe.Limit))
			return
		}
		if errors.Is(err, bufio.ErrTooLong) {
			httpError(w, http.StatusBadRequest, fmt.Errorf("line exceeds %d bytes", maxWriteLineBytes))
			return
		}
		httpError(w, http.StatusBadRequest, err)
		return
	}
	ev.PointsWritten = int64(total)
	ev.SeriesWritten = len(entries)
	if err := h.engine.WriteBatch(entries...); err != nil {
		ev.Error = err.Error()
		if errors.Is(err, lsm.ErrInvalidWrite) {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		if code, kind := mapQueryError(err); code != 0 {
			writeMappedError(w, code, kind, err)
			return
		}
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"points": total,
		"series": len(entries),
	})
}
