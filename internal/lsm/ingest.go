// The write path. Every insert — Engine.Write, WriteBatch, the HTTP /write
// handler, bulk loaders — is a batch of per-series entries that travels
//
//	WriteBatch → bounded queue → e.mu → applyRun
//
// on the caller's own goroutine; the engine starts none. The caller encodes
// its WAL records before any lock and queues the request as one item. Then
// it waits until its request is resolved or no caller is draining; in the
// latter case it becomes the drainer, takes the engine lock and applies
// queued runs (up to ingestDrainRun requests each, in queue order) until
// its own request is among the applied. applyRun is the only code that
// turns entries into WAL records and memtable points — one wal.Commit for
// the run's records, memAppend per entry, at most one flush, the shared
// afterFlush tail — and every request of the run resolves with the run's
// outcome, waking its caller at once. The caller returns once its request
// is resolved — ack means "WAL group synced" — so the only thing the queue
// buys is batching: callers that queue while the drainer is in an fsync
// share the next group. This is flat combining with the queue's lock
// electing the one drainer, so runs apply in queue order and one request
// is always one group.
//
// Backpressure, never unbounded buffering: the queue is capped in
// points. An enqueue that would overflow blocks for at most
// Options.IngestEnqueueWait and then fails with ErrIngestBackpressure, a
// typed retryable error the HTTP layer maps to 429. A batch is admitted
// whole or refused whole, and nothing is ever silently dropped — every
// batch is either acknowledged durable or its error says why not.
//
// Crash atomicity is per WAL record, i.e. per BatchEntry: a crashed batch
// may recover any subset of its entries (each was its own record), but
// never a partial entry. Step sites, in path order: ingest.enqueue (before
// anything is queued), ingest.drain (once the lock is held and the run
// taken, before the engine is touched), wal.append, wal.group (inside
// wal.Commit), wal.appended, then the flush sites.
package lsm

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"m4lsm/internal/series"
	"m4lsm/internal/storage"
	"m4lsm/internal/tsfile"
)

// ErrIngestBackpressure marks a write rejected because the ingest queue
// stayed full past the enqueue deadline. The condition is transient — the
// queued callers are draining it — so callers should back off and retry;
// nothing of the refused batch was queued.
var ErrIngestBackpressure = errors.New("lsm: ingest queue full (backpressure, retry)")

// ErrInvalidWrite marks a write batch rejected for its content before any
// of it was queued: an empty series id, a NaN value, or the timestamp
// math.MaxInt64, which no half-open query range can name (so no query
// could return the point, and compaction would drop it). Retrying the
// same batch cannot succeed.
var ErrInvalidWrite = errors.New("lsm: invalid write")

// errEngineClosed is what every operation on a closed engine fails with,
// queued-but-undrained batches included.
var errEngineClosed = errors.New("lsm: engine closed")

const (
	defaultIngestQueuePoints = 1 << 16
	defaultIngestWait        = 2 * time.Second
	// ingestDrainRun bounds how many queued requests one run takes: enough
	// to amortize the engine lock and share a group commit, small enough
	// that one run's latency stays bounded.
	ingestDrainRun = 64
)

// BatchEntry is one series' slice of a WriteBatch: it becomes exactly one
// WAL record, the crash-atomicity unit of ingestion.
type BatchEntry struct {
	SeriesID string
	Points   []series.Point
}

// ingestReq is one queued WriteBatch call. entries alias the caller's
// slices: the caller does not return before the request resolves, and
// memAppend copies. recs are its WAL payloads, encoded before any lock.
// done and err are written holding both e.mu and the queue's lock, so
// either lock suffices to read them.
type ingestReq struct {
	entries []BatchEntry
	recs    [][]byte
	points  int
	done    bool
	err     error
}

// ingester is the bounded queue. Its mutex, a leaf under e.mu, guards only
// the queue and the drainer election; the work — WAL group commit,
// memtable insert, flush — happens under e.mu.
type ingester struct {
	mu       sync.Mutex
	cond     *sync.Cond // signals room in the queue, resolved requests, the drainer stepping down, and shutdown
	queue    []*ingestReq
	points   int  // queued points
	draining bool // a caller has been elected to drain
	closed   bool // Close or Kill: no new enqueues

	// Lifetime counters, surfaced as metrics.
	batches      atomic.Int64
	entries      atomic.Int64
	pointsIn     atomic.Int64
	backpressure atomic.Int64
}

func newIngester() *ingester {
	ing := &ingester{}
	ing.cond = sync.NewCond(&ing.mu)
	return ing
}

// queuedPoints reports the current queue depth.
func (ing *ingester) queuedPoints() int {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	return ing.points
}

// Write buffers points for seriesID. Points may arrive in any order and may
// overwrite earlier timestamps; the latest write for a timestamp wins. A
// flush is triggered automatically when the buffer reaches FlushThreshold.
// It is WriteBatch of one entry — the same queue, WAL record and error
// classes, including the retryable ErrIngestBackpressure when the queue
// stays saturated.
func (e *Engine) Write(seriesID string, pts ...series.Point) error {
	return e.WriteBatch(BatchEntry{SeriesID: seriesID, Points: pts})
}

// Delete records an append-only range tombstone covering the closed range
// [start, end] of seriesID (Definition 2.5). It applies to every chunk with
// a smaller version and to the current memtable contents.
func (e *Engine) Delete(seriesID string, start, end int64) error {
	if end < start {
		return fmt.Errorf("lsm: inverted delete range [%d,%d]", start, end)
	}
	if err := e.writable(); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.unlock()
	if e.closed.Load() {
		return errEngineClosed
	}
	d := storage.Delete{SeriesID: seriesID, Version: e.allocVersion(), Start: start, End: end}
	// Mark the range stale before anything becomes visible; over-marking
	// on a failed append only costs rebuild work.
	e.pyr.MarkStale(seriesID, start, end)
	// The WAL is written first and is authoritative: a crash between the two
	// appends leaves the delete in the WAL only, and recovery re-appends it
	// to the mods sidecar (see replayRecord). The reverse order would leave a
	// half-applied delete — recorded against flushed chunks but not against
	// WAL-replayed memtable points.
	if e.wal != nil {
		if err := e.step("wal.append"); err != nil {
			return e.classifyWrite(err)
		}
		// The record stays in the log until the next checkpoint.
		// Checkpoints are written by flushes under e.mu, which this call
		// holds until the delete is in the mods sidecar: no checkpoint
		// falls in between.
		if err := e.wal.Commit([][]byte{tsfile.AppendDelete([]byte{walOpDelete}, d)}); err != nil {
			return e.classifyWrite(err)
		}
		e.met.walRecords.Inc()
	}
	if err := e.step("mods.append"); err != nil {
		return err
	}
	if err := e.mods.Append(d); err != nil {
		return e.classifyWrite(err)
	}
	e.met.deletes.Inc()
	e.applyDeleteToMem(d)
	return nil
}

// applyDeleteToMem removes covered points from the memtable, so points
// written before the delete die while later writes survive. The survivors
// go to fresh columns: snapshots may hold the old ones. Caller holds e.mu
// (or is single-threaded Open).
func (e *Engine) applyDeleteToMem(d storage.Delete) {
	ts, vs := e.mem[d.SeriesID].cols.Times(), e.mem[d.SeriesID].cols.Values()
	lo := sort.Search(len(ts), func(i int) bool { return ts[i] >= d.Start })
	hi := sort.Search(len(ts), func(i int) bool { return ts[i] > d.End })
	if lo >= hi {
		return
	}
	m := memtable{cols: series.NewColumns(slices.Concat(ts[:lo], ts[hi:]), slices.Concat(vs[:lo], vs[hi:]))}
	m.extremes(0)
	e.memPts -= hi - lo
	e.mem[d.SeriesID] = m
}

// WriteBatch ingests several series' points as one request: it is queued
// whole (blocking up to Options.IngestEnqueueWait when the queue is full,
// then failing with ErrIngestBackpressure, with nothing queued) and the
// call returns once the request is durable, its entries one WAL group of
// one record each.
//
// WriteBatch keeps none of the caller's slices: the WAL record encoding
// and the memtable append both copy the points, and once the request is
// queued the call returns only after it has resolved, on every path. So
// when WriteBatch returns, accepted or refused, the caller may reuse or
// overwrite entries and their Points (the HTTP /write handler recycles its
// parse buffers this way).
func (e *Engine) WriteBatch(entries ...BatchEntry) error {
	total, nonEmpty := 0, 0
	for _, ent := range entries {
		if ent.SeriesID == "" {
			return fmt.Errorf("%w: empty series id", ErrInvalidWrite)
		}
		for _, p := range ent.Points {
			if math.IsNaN(p.V) {
				return fmt.Errorf("%w: NaN value at t=%d", ErrInvalidWrite, p.T)
			}
			if p.T == math.MaxInt64 {
				return fmt.Errorf("%w: timestamp %d is reserved", ErrInvalidWrite, p.T)
			}
		}
		if len(ent.Points) > 0 {
			nonEmpty++
		}
		total += len(ent.Points)
	}
	if total == 0 {
		return nil
	}
	if err := e.writable(); err != nil {
		return err
	}
	if e.closed.Load() {
		return errEngineClosed
	}
	// The enqueue site crashes BEFORE anything is queued: an injected kill
	// here loses the whole batch, never half of it.
	if err := e.step("ingest.enqueue"); err != nil {
		return e.classifyWrite(err)
	}
	req := &ingestReq{entries: entries, points: total}
	if e.wal != nil {
		req.recs = encodeEntries(entries, nonEmpty)
	}
	err := e.ing.enqueue(req, e.opts.IngestQueuePoints, e.opts.IngestEnqueueWait)
	e.ing.batches.Add(1)
	if err != nil {
		return err
	}
	e.ing.entries.Add(int64(nonEmpty))
	e.ing.pointsIn.Add(int64(total))
	if drainer, err := e.ing.await(req); !drainer {
		return err
	}
	e.mu.Lock()
	defer e.unlock()
	defer e.ing.stepDown()
	for !req.done {
		// A queued request is resolved by a drain, Close or Kill; an
		// unresolved one is still queued, so the queue is not empty.
		if !e.drain() {
			return errEngineClosed
		}
	}
	return req.err
}

// await blocks until req is resolved or no caller is draining. It reports
// whether the caller became the drainer; if not, req is resolved and err
// is its outcome.
func (ing *ingester) await(req *ingestReq) (drainer bool, err error) {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	for !req.done && ing.draining {
		ing.cond.Wait()
	}
	if req.done {
		return false, req.err
	}
	ing.draining = true
	return true, nil
}

// stepDown ends the caller's turn as drainer and wakes the waiting callers,
// one of which drains next. Caller holds e.mu.
func (ing *ingester) stepDown() {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	ing.draining = false
	ing.cond.Broadcast()
}

// resolve gives every request of run its outcome and wakes their callers.
// Caller holds e.mu.
func (ing *ingester) resolve(run []*ingestReq, err error) {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	for _, r := range run {
		r.done, r.err = true, err
	}
	ing.cond.Broadcast()
}

// enqueue adds one request to the queue, blocking while the queue is at
// its point cap (0: 65536), up to wait (0: 2s, < 0: not at all). The cap
// is soft by one request: a queue below it accepts a request of any size
// (otherwise a batch larger than the cap could never be ingested).
func (ing *ingester) enqueue(req *ingestReq, maxPoints int, wait time.Duration) error {
	if maxPoints <= 0 {
		maxPoints = defaultIngestQueuePoints
	}
	if wait == 0 {
		wait = defaultIngestWait
	}
	ing.mu.Lock()
	defer ing.mu.Unlock()
	if ing.points >= maxPoints && wait > 0 {
		// sync.Cond has no timed wait; a timer broadcast bounds the block.
		deadline := time.Now().Add(wait)
		timer := time.AfterFunc(wait, ing.cond.Broadcast)
		defer timer.Stop()
		for ing.points >= maxPoints && !ing.closed && time.Now().Before(deadline) {
			ing.cond.Wait()
		}
	}
	if ing.closed {
		return errEngineClosed
	}
	if ing.points >= maxPoints {
		ing.backpressure.Add(1)
		return fmt.Errorf("%w: queue holds %d points", ErrIngestBackpressure, ing.points)
	}
	ing.queue = append(ing.queue, req)
	ing.points += req.points
	return nil
}

// take pops up to ingestDrainRun requests from the head of the queue and
// wakes the writers waiting for room.
func (ing *ingester) take() []*ingestReq {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	n := min(len(ing.queue), ingestDrainRun)
	if n == 0 {
		return nil
	}
	run, rest := ing.queue[:n:n], ing.queue[n:]
	if len(rest) == 0 {
		rest = nil // the run still aliases the array; the next enqueue starts a fresh one
	}
	ing.queue = rest
	for _, r := range run {
		ing.points -= r.points
	}
	ing.cond.Broadcast()
	return run
}

// shut refuses every later enqueue and wakes the writers waiting for room;
// drop also discards what is queued, resolving it with errEngineClosed.
// Caller holds e.mu.
func (ing *ingester) shut(drop bool) {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	ing.closed = true
	if drop {
		for _, r := range ing.queue {
			r.done, r.err = true, errEngineClosed
		}
		ing.queue, ing.points = nil, 0
	}
	ing.cond.Broadcast()
}

// drain applies the next queued run and resolves every request in it with
// the run's outcome; false when the queue was empty. Caller holds e.mu.
func (e *Engine) drain() bool {
	run := e.ing.take()
	if run == nil {
		return false
	}
	e.ing.resolve(run, e.applyRun(run))
	return true
}

// applyRun applies one run of queued requests: all WAL records committed
// as one group, then the memtable inserts, then at most one flush when a
// series crossed the threshold. An error fails the whole run —
// faultfs.ErrCrash verbatim for the torture harness, ENOSPC classified
// into read-only mode. A commit failure leaves the memtable untouched; a
// flush failure loses nothing (the points are in the memtable and the WAL)
// and reports a retryable error. Caller holds e.mu.
func (e *Engine) applyRun(run []*ingestReq) error {
	// The drain site crashes before the engine is touched: the run's
	// records are not yet in the WAL, so the kill loses whole entries,
	// never parts of one.
	if err := e.step("ingest.drain"); err != nil {
		return e.classifyWrite(err)
	}
	if e.wal != nil {
		if err := e.step("wal.append"); err != nil {
			return e.classifyWrite(err)
		}
		recs := run[0].recs
		if len(run) > 1 {
			recs = nil
			for _, r := range run {
				recs = append(recs, r.recs...)
			}
		}
		// The records stay in the log until the next flush checkpoint,
		// which cannot race in between the commit and the memtable update
		// because we hold the engine lock.
		if err := e.wal.Commit(recs); err != nil {
			return e.classifyWrite(err)
		}
		e.met.walRecords.Add(int64(len(recs)))
		if err := e.step("wal.appended"); err != nil {
			return e.classifyWrite(err)
		}
	}
	full := false
	for _, r := range run {
		for _, ent := range r.entries {
			if len(ent.Points) > 0 {
				full = e.memAppend(ent.SeriesID, ent.Points) || full
			}
		}
		e.met.pointsWritten.Add(int64(r.points))
	}
	if !full {
		return nil
	}
	n, err := e.flushLocked()
	return e.afterFlush(n, false, err)
}

// encodeEntries encodes a request's insert records, one per non-empty
// entry, into one buffer of exactly their total size, each record's
// payload a sub-slice of it.
func encodeEntries(entries []BatchEntry, nonEmpty int) [][]byte {
	size := 0
	for _, ent := range entries {
		if len(ent.Points) > 0 {
			size += insertSize(ent.SeriesID, ent.Points)
		}
	}
	buf := make([]byte, 0, size)
	recs := make([][]byte, 0, nonEmpty)
	for _, ent := range entries {
		if len(ent.Points) > 0 {
			start := len(buf)
			buf = appendInsert(buf, ent.SeriesID, ent.Points)
			recs = append(recs, buf[start:len(buf):len(buf)])
		}
	}
	return recs
}

// memtable is one series' unflushed points: sorted, deduplicated columns,
// copy-on-write (see memAppend), and their extremes, kept as the points are
// written, so a snapshot takes the memtable as a chunk without reading a
// point.
type memtable struct {
	cols        series.Columns
	bottom, top series.Point // its BP and TP
}

// extremes folds the points from index i on into bottom and top (from 0,
// it finds them anew), keeping the earliest of equal extremes as
// storage.ComputeMeta does.
func (m *memtable) extremes(i int) {
	ts, vs := m.cols.Times(), m.cols.Values()
	_, _, bottom, top, ok := storage.ComputeMeta(series.NewColumns(ts[i:], vs[i:]))
	if i == 0 || ok && bottom.V < m.bottom.V {
		m.bottom = bottom
	}
	if i == 0 || ok && top.V > m.top.V {
		m.top = top
	}
}

// chunk is the memtable as the in-memory chunk a snapshot reads, borrowing
// the points it holds now. The memtable is not empty.
func (m memtable) chunk(id string, version storage.Version) storage.ChunkRef {
	ts, vs := m.cols.Times(), m.cols.Values()
	first, last := series.Point{T: ts[0], V: vs[0]}, series.Point{T: ts[len(ts)-1], V: vs[len(vs)-1]}
	return storage.NewMemChunk(storage.ChunkMeta{SeriesID: id, Version: version,
		First: first, Last: last, Bottom: m.bottom, Top: m.top}, m.cols)
}

// memAppend is the only place points enter a memtable — applyRun for live
// writes, replayRecord during recovery. A batch that starts after the
// buffered points is appended in place, past the length any snapshot
// borrowed; any other is merged into fresh columns. Either way a later
// write of a timestamp wins, within the batch too. It marks the batch's
// extent stale in the pyramid first, before the points are visible, and
// reports whether the series holds FlushThreshold distinct points. Caller
// holds e.mu (or is single-threaded Open).
func (e *Engine) memAppend(id string, pts []series.Point) (full bool) {
	if len(pts) == 0 {
		return false
	}
	if !slices.IsSortedFunc(pts, byTime) {
		pts = slices.Clone(pts) // the caller's slice is not ours to sort
		slices.SortStableFunc(pts, byTime)
	}
	e.pyr.MarkStale(id, pts[0].T, pts[len(pts)-1].T)
	m := e.mem[id]
	ts, vs := m.cols.Times(), m.cols.Values()
	n := len(ts)
	if n > 0 && pts[0].T <= ts[n-1] {
		// Room for in-order appends after it, sized from the buffer's fill:
		// twice the merged length, capped at the flush threshold.
		c := max(n+len(pts), min(2*(n+len(pts)), e.opts.FlushThreshold))
		ft, fv := make([]int64, 0, c), make([]float64, 0, c)
		m.cols, n = series.NewColumns(mergeInto(ft, fv, ts, vs, pts)), 0
	} else {
		m.cols = series.NewColumns(mergeInto(slices.Grow(ts, len(pts)), slices.Grow(vs, len(pts)), nil, nil, pts))
	}
	m.extremes(n)
	e.memPts += m.cols.Len() - len(ts)
	e.mem[id] = m
	return m.cols.Len() >= e.opts.FlushThreshold
}

// byTime orders points by timestamp alone.
func byTime(a, b series.Point) int { return cmp.Compare(a.T, b.T) }

// mergeInto appends to dt, dv the merge of the sorted, duplicate-free
// columns ts, vs with pts, sorted by time: a point of pts replaces the one
// of ts at its timestamp, and a later point of pts an earlier one. An
// in-place append passes the buffered columns as dt, dv and none as ts, vs,
// with pts starting after them, so no point already in dt is rewritten.
func mergeInto(dt []int64, dv []float64, ts []int64, vs []float64, pts []series.Point) ([]int64, []float64) {
	i := 0
	for _, p := range pts {
		for ; i < len(ts) && ts[i] < p.T; i++ {
			dt, dv = append(dt, ts[i]), append(dv, vs[i])
		}
		if i < len(ts) && ts[i] == p.T {
			i++
		}
		if k := len(dt) - 1; k >= 0 && dt[k] == p.T {
			dv[k] = p.V
			continue
		}
		dt, dv = append(dt, p.T), append(dv, p.V)
	}
	return append(dt, ts[i:]...), append(dv, vs[i:]...)
}
