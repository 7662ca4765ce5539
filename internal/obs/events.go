package obs

import (
	"encoding/json"
	"log/slog"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one wide request-log record: everything worth knowing about a
// single /query, /render or /write request in one flat structure, so "why
// was this request slow" is answered by one grep of the JSONL file (by
// request id) instead of a join across metrics, traces and access logs.
type Event struct {
	When      time.Time `json:"when"`
	RequestID string    `json:"requestId,omitempty"`
	Endpoint  string    `json:"endpoint"`
	// Statement is the m4ql text for /query and the parameter summary for
	// /render.
	Statement string `json:"statement,omitempty"`
	Status    int    `json:"status"`
	ElapsedNs int64  `json:"elapsedNs"`
	Operator  string `json:"operator,omitempty"`
	Partial   bool   `json:"partial,omitempty"`
	Warnings  int    `json:"warnings,omitempty"`
	Error     string `json:"error,omitempty"`

	// Ingestion attribution, for /write events.
	PointsWritten int64 `json:"pointsWritten,omitempty"`
	SeriesWritten int   `json:"seriesWritten,omitempty"`

	// Budget spend: the query's physical cost counters (what a per-query
	// govern budget charges against).
	ChunksLoaded     int64 `json:"chunksLoaded,omitempty"`
	TimeBlocksLoaded int64 `json:"timeBlocksLoaded,omitempty"`
	BytesRead        int64 `json:"bytesRead,omitempty"`
	PointsDecoded    int64 `json:"pointsDecoded,omitempty"`

	// Rollup-pyramid attribution: cells consulted vs spans that fell back
	// to the span×G path.
	PyramidSpans         int64 `json:"pyramidSpans,omitempty"`
	PyramidCells         int64 `json:"pyramidCells,omitempty"`
	PyramidFallbackSpans int64 `json:"pyramidFallbackSpans,omitempty"`

	// Trace attachment, present when the request executed with an armed
	// trace (TRACE clause or ?trace=1): the trace id and per-phase timings.
	TraceID string        `json:"traceId,omitempty"`
	Phases  []PhaseTiming `json:"phases,omitempty"`
}

// EventLog is the bounded asynchronous writer behind the wide-event log.
// Record never blocks: events go into a fixed-capacity channel drained by
// one writer goroutine that appends JSONL to an optional file and keeps two
// tails: the most recent events (/debug/events) and the most recent ones
// at or above the slow threshold (/debug/slowlog). The second tail is its
// own ring, so a burst of fast requests cannot push a slow one out of it.
// When the channel is full the event is dropped and counted — an
// overloaded request path must never stall on its own telemetry.
//
// The nil *EventLog discards everything, so wiring is optional.
type EventLog struct {
	ch   chan Event
	quit chan struct{}
	done chan struct{}

	file *os.File // nil: memory-only
	log  *slog.Logger
	slow time.Duration // minimum ElapsedNs filed into the slow tail

	mu     sync.Mutex
	recent ring
	slowed ring

	recorded   atomic.Int64
	written    atomic.Int64
	dropped    atomic.Int64
	writeErrs  atomic.Int64
	closeOnce  sync.Once
	closedFile error
}

// ring is a fixed-capacity tail of events, overwriting the oldest when
// full. The EventLog's mutex guards it.
type ring struct {
	buf    []Event
	next   int
	filled bool
}

func (r *ring) add(e Event) {
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.filled = true
	}
}

// newestFirst copies the tail out, most recent event first.
func (r *ring) newestFirst() []Event {
	n := r.next
	if r.filled {
		n = len(r.buf)
	}
	out := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		pos := r.next - 1 - i
		if pos < 0 {
			pos += len(r.buf)
		}
		out = append(out, r.buf[pos])
	}
	return out
}

// NewEventLog builds the log. path names the JSONL file to append to
// ("" keeps events in memory only); buffer is the channel capacity
// (default 256); ringCap bounds each in-memory tail (default 256); events
// with ElapsedNs of at least slow also enter the slow tail (0 files every
// event there). The file is opened append-only so several server
// incarnations interleave whole lines, never torn ones.
func NewEventLog(path string, buffer, ringCap int, slow time.Duration, logger *slog.Logger) (*EventLog, error) {
	if buffer <= 0 {
		buffer = 256
	}
	if ringCap <= 0 {
		ringCap = 256
	}
	if logger == nil {
		logger = slog.Default()
	}
	l := &EventLog{
		ch:     make(chan Event, buffer),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
		log:    logger,
		slow:   slow,
		recent: ring{buf: make([]Event, ringCap)},
		slowed: ring{buf: make([]Event, ringCap)},
	}
	if path != "" {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		l.file = f
	}
	go l.run()
	return l, nil
}

// Record enqueues one event. Never blocks: a full buffer drops the event
// and counts it (Dropped). Safe after Close (the event is silently
// discarded).
func (l *EventLog) Record(e Event) {
	if l == nil {
		return
	}
	l.recorded.Add(1)
	select {
	case l.ch <- e:
	default:
		l.dropped.Add(1)
	}
}

// run is the single writer goroutine: it drains the channel into the tails
// and the file, and on Close drains whatever is still buffered before
// exiting.
func (l *EventLog) run() {
	defer close(l.done)
	var enc *json.Encoder
	if l.file != nil {
		enc = json.NewEncoder(l.file)
	}
	write := func(e Event) {
		l.mu.Lock()
		l.recent.add(e)
		if e.ElapsedNs >= l.slow.Nanoseconds() {
			l.slowed.add(e)
		}
		l.mu.Unlock()
		if enc != nil {
			if err := enc.Encode(e); err != nil {
				if l.writeErrs.Add(1) == 1 {
					l.log.Warn("event log: write", "err", err)
				}
				return
			}
		}
		l.written.Add(1)
	}
	for {
		select {
		case e := <-l.ch:
			write(e)
		case <-l.quit:
			for {
				select {
				case e := <-l.ch:
					write(e)
				default:
					return
				}
			}
		}
	}
}

// Recent returns the tail of the log, newest first. Nil returns nil.
func (l *EventLog) Recent() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.recent.newestFirst()
}

// Slow returns the slow tail: the most recent events at or above the slow
// threshold, newest first. Nil returns nil.
func (l *EventLog) Slow() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.slowed.newestFirst()
}

// SlowThreshold returns the minimum latency filed into the slow tail.
func (l *EventLog) SlowThreshold() time.Duration {
	if l == nil {
		return 0
	}
	return l.slow
}

// Recorded returns how many events Record accepted (including later drops).
func (l *EventLog) Recorded() int64 {
	if l == nil {
		return 0
	}
	return l.recorded.Load()
}

// Written returns how many events reached the tails (and file, when set).
func (l *EventLog) Written() int64 {
	if l == nil {
		return 0
	}
	return l.written.Load()
}

// Dropped returns how many events were discarded on a full buffer.
func (l *EventLog) Dropped() int64 {
	if l == nil {
		return 0
	}
	return l.dropped.Load()
}

// WriteErrors returns how many file appends failed.
func (l *EventLog) WriteErrors() int64 {
	if l == nil {
		return 0
	}
	return l.writeErrs.Load()
}

// Close drains the buffered events, stops the writer goroutine and closes
// the file. Record stays safe to call afterwards (events are discarded).
func (l *EventLog) Close() error {
	if l == nil {
		return nil
	}
	l.closeOnce.Do(func() {
		close(l.quit)
		<-l.done
		if l.file != nil {
			l.closedFile = l.file.Close()
		}
	})
	return l.closedFile
}
