package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// Trace collects the execution structure of one query: named phases,
// named counters (I/O stats, pyramid attribution) and degradation warnings. All methods are safe for
// concurrent use; the nil *Trace discards everything, which is the fast
// path when tracing is off.
type Trace struct {
	id    string
	start time.Time

	mu       sync.Mutex
	phases   []PhaseTiming
	counters map[string]int64
	warnings []string
}

// PhaseTiming is one sequential stage of query execution.
type PhaseTiming struct {
	Name string `json:"name"`
	Ns   int64  `json:"ns"`
}

// Snapshot is the JSON form of a completed trace, returned next to query
// results.
type Snapshot struct {
	ID        string           `json:"id"`
	ElapsedNs int64            `json:"elapsedNs"`
	Phases    []PhaseTiming    `json:"phases,omitempty"`
	Counters  map[string]int64 `json:"counters,omitempty"`
	Warnings  []string         `json:"warnings,omitempty"`
}

type traceKey struct{}

// NewTraceID returns a short random hex identifier, also used as the
// request id of the HTTP layer.
func NewTraceID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "trace-unseeded"
	}
	return hex.EncodeToString(b[:])
}

// WithTrace arms tracing on the context: operators executing under the
// returned context record their phases and counters into the returned
// Trace.
func WithTrace(ctx context.Context) (context.Context, *Trace) {
	tr := &Trace{id: NewTraceID(), start: time.Now(), counters: map[string]int64{}}
	return context.WithValue(ctx, traceKey{}, tr), tr
}

// TraceOf returns the context's trace, or nil when tracing is off.
func TraceOf(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceKey{}).(*Trace)
	return tr
}

// Phase records one sequential stage's duration.
func (t *Trace) Phase(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.phases = append(t.phases, PhaseTiming{Name: name, Ns: d.Nanoseconds()})
	t.mu.Unlock()
}

// SetCounters stores a batch of named counters.
func (t *Trace) SetCounters(m map[string]int64) {
	if t == nil || len(m) == 0 {
		return
	}
	t.mu.Lock()
	for k, v := range m {
		t.counters[k] = v
	}
	t.mu.Unlock()
}

// Warn appends degradation warnings to the trace.
func (t *Trace) Warn(warnings ...string) {
	if t == nil || len(warnings) == 0 {
		return
	}
	t.mu.Lock()
	t.warnings = append(t.warnings, warnings...)
	t.mu.Unlock()
}

// Finish renders the trace for the result payload; ElapsedNs is wall time
// since WithTrace.
func (t *Trace) Finish() *Snapshot {
	if t == nil {
		return nil
	}
	elapsed := time.Since(t.start)
	t.mu.Lock()
	defer t.mu.Unlock()
	snap := &Snapshot{
		ID:        t.id,
		ElapsedNs: elapsed.Nanoseconds(),
		Phases:    append([]PhaseTiming(nil), t.phases...),
		Warnings:  append([]string(nil), t.warnings...),
	}
	if len(t.counters) > 0 {
		snap.Counters = make(map[string]int64, len(t.counters))
		for k, v := range t.counters {
			snap.Counters[k] = v
		}
	}
	return snap
}
