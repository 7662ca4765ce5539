// The write path. Every insert — Engine.Write, WriteBatch, the HTTP /write
// handler, bulk loaders — is a batch of per-series entries that travels
//
//	WriteBatch → bounded queue → append worker → applyRun
//
// and applyRun is the only code that turns entries into WAL records and
// memtable points: one engine-lock hold, one wal.Commit for the run's
// records, memAppend per entry, at most one flush, the shared afterFlush
// tail. The caller blocks until every entry of its batch is resolved — ack
// means "WAL group synced" — so the only thing the queue buys is batching:
// the worker drains a whole run of entries queued by concurrent callers
// and amortizes the lock round-trip and the fsync across them. There is one
// append worker, so runs apply in queue order.
//
// Backpressure, never unbounded buffering: the queue is capped in
// points. An enqueue that would overflow blocks for at most
// Options.IngestEnqueueWait and then fails with ErrIngestBackpressure, a
// typed retryable error the HTTP layer maps to 429. Nothing is ever
// silently dropped — every entry is either acknowledged durable or its
// batch's error says why not.
//
// Crash atomicity is per WAL record, i.e. per BatchEntry: a crashed batch
// may recover any subset of its entries (each was its own record), but
// never a partial entry. Step sites, in path order: ingest.enqueue (before
// anything is queued), ingest.drain (before the worker takes the lock),
// wal.append, wal.group (inside wal.Commit), wal.appended, then the flush
// sites.
package lsm

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"m4lsm/internal/series"
	"m4lsm/internal/storage"
	"m4lsm/internal/wal"
)

// ErrIngestBackpressure marks a write rejected because the ingest queue
// stayed full past the enqueue deadline. The condition is transient — the
// worker is draining — so callers should back off and retry; point
// writes are idempotent overwrites, so retrying a partially enqueued batch
// is safe.
var ErrIngestBackpressure = errors.New("lsm: ingest queue full (backpressure, retry)")

// ErrInvalidWrite marks a write batch rejected for its content before any
// of it was queued: an empty series id, a NaN value, or the timestamp
// math.MaxInt64, which no half-open query range can name (so no query
// could return the point, and compaction would drop it). Retrying the
// same batch cannot succeed.
var ErrInvalidWrite = errors.New("lsm: invalid write")

// errEngineClosed is what every operation on a closed engine fails with,
// queued-but-undrained entries included.
var errEngineClosed = errors.New("lsm: engine closed")

const (
	defaultIngestQueuePoints = 1 << 16
	defaultIngestWait        = 2 * time.Second
	// ingestDrainRun bounds how many queued items one worker round takes:
	// enough to amortize the engine lock and share a group commit, small
	// enough that one round's latency stays bounded.
	ingestDrainRun = 64
)

// BatchEntry is one series' slice of a WriteBatch: it becomes exactly one
// WAL record, the crash-atomicity unit of ingestion.
type BatchEntry struct {
	SeriesID string
	Points   []series.Point
}

// batchResult joins one WriteBatch caller with the worker draining its
// entries. The first error wins; done closes when the last entry resolves.
type batchResult struct {
	pending atomic.Int64
	mu      sync.Mutex
	err     error
	done    chan struct{}
}

func (r *batchResult) finish(n int64) {
	if r.pending.Add(-n) == 0 {
		close(r.done)
	}
}

// ingestItem is one queued BatchEntry. pts aliases the caller's slice: the
// caller is blocked in WriteBatch until the item resolves, and memAppend
// copies.
type ingestItem struct {
	seriesID string
	pts      []series.Point
	res      *batchResult
}

// ingester owns the bounded queue and the append worker. Its mutex only
// guards queue operations (slice push/pop); the expensive work — WAL group
// commit, memtable insert, flush — happens outside it.
type ingester struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []ingestItem
	points int // queued points

	closing bool // no new enqueues; the worker drains what is queued, then exits
	killed  bool // the worker fails what is queued, then exits

	started sync.Once
	wg      sync.WaitGroup

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

// startIngestWorker launches the append worker on first use.
func (e *Engine) startIngestWorker() {
	e.ing.started.Do(func() {
		e.ing.wg.Add(1)
		go func() {
			defer e.ing.wg.Done()
			e.ingestWorker()
		}()
	})
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
	defer e.mu.Unlock()
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
	var rec [1]wal.Record
	if e.wal != nil {
		if err := e.step("wal.append"); err != nil {
			return e.classifyWrite(err)
		}
		// Pinned: the record's segment must survive until the delete is
		// durable in the mods sidecar below — it claims no flush watermark
		// (deletes carry no memtable points to flush).
		rec[0] = wal.Record{Payload: encodeDelete(d), Pin: true}
		if err := e.wal.Commit(rec[:]); err != nil {
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
	// On any failure above the pin is kept: conservative, the segment
	// just retires later.
	e.wal.Unpin(rec[0].Seq)
	e.met.deletes.Inc()
	e.applyDeleteToMem(d)
	return nil
}

// applyDeleteToMem removes covered points from the write buffer, so points
// written before the delete die while later writes survive. Caller holds
// e.mu (or is single-threaded Open).
func (e *Engine) applyDeleteToMem(d storage.Delete) {
	buf := e.mem[d.SeriesID]
	if len(buf) == 0 {
		return
	}
	kept := buf[:0]
	for _, p := range buf {
		if !d.Covers(p.T) {
			kept = append(kept, p)
		}
	}
	e.memPts += len(kept) - len(buf)
	e.mem[d.SeriesID] = kept
}

// WriteBatch ingests several series' points: entries are enqueued
// (blocking up to Options.IngestEnqueueWait when the queue is full, then
// failing with ErrIngestBackpressure) and the call returns once every
// entry is durable, each entry one group-committed WAL record. On a
// partially enqueued batch the call waits for the entries that did get in,
// then reports the backpressure error; retrying the whole batch is safe
// because point writes are idempotent overwrites.
//
// WriteBatch keeps none of the caller's slices: the WAL record encoding
// and the memtable append both copy the points, and once an entry is
// queued the call returns only after it has resolved, on every path. So
// when WriteBatch returns, accepted or refused, the caller may reuse or
// overwrite entries and their Points (the HTTP /write handler recycles its
// parse buffers this way).
func (e *Engine) WriteBatch(entries ...BatchEntry) error {
	total := 0
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
	e.startIngestWorker()
	limit, wait := e.opts.IngestQueuePoints, e.opts.IngestEnqueueWait
	if limit <= 0 {
		limit = defaultIngestQueuePoints
	}
	if wait == 0 {
		wait = defaultIngestWait
	}
	res := &batchResult{done: make(chan struct{})}
	// The caller holds one reference of its own so the worker finishing
	// the first entry cannot close done while later entries are still
	// being enqueued.
	res.pending.Store(1)
	var queued, queuedPts int64
	var enqErr error
	for _, ent := range entries {
		if len(ent.Points) == 0 {
			continue
		}
		res.pending.Add(1)
		if enqErr = e.ing.enqueue(ingestItem{ent.SeriesID, ent.Points, res}, limit, wait); enqErr != nil {
			res.pending.Add(-1)
			break
		}
		queued++
		queuedPts += int64(len(ent.Points))
	}
	e.ing.batches.Add(1)
	e.ing.entries.Add(queued)
	e.ing.pointsIn.Add(queuedPts)
	// Release the caller's reference and wait for the queued entries even
	// when a later entry hit backpressure: returning while entries are in
	// flight would detach the caller from the bounded queue.
	res.finish(1)
	<-res.done
	if enqErr != nil {
		return enqErr
	}
	return res.err
}

// enqueue adds one item to the queue, blocking while the queue is at its
// point cap, up to wait (<= 0: not at all). The cap is soft by one item: a
// queue below it accepts an item of any size (otherwise an entry larger
// than the cap could never be ingested).
func (ing *ingester) enqueue(item ingestItem, maxPoints int, wait time.Duration) error {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	if ing.points >= maxPoints && wait > 0 {
		// sync.Cond has no timed wait; a timer broadcast bounds the block.
		deadline := time.Now().Add(wait)
		timer := time.AfterFunc(wait, ing.cond.Broadcast)
		defer timer.Stop()
		for ing.points >= maxPoints && !ing.closing && !ing.killed && time.Now().Before(deadline) {
			ing.cond.Wait()
		}
	}
	if ing.closing || ing.killed {
		return errEngineClosed
	}
	if ing.points >= maxPoints {
		ing.backpressure.Add(1)
		return fmt.Errorf("%w: queue holds %d points", ErrIngestBackpressure, ing.points)
	}
	ing.queue = append(ing.queue, item)
	ing.points += len(item.pts)
	// Wake the worker (and any writer whose timer fired).
	ing.cond.Broadcast()
	return nil
}

// take pops up to ingestDrainRun items from the head of the queue.
func (ing *ingester) take() []ingestItem {
	n := min(len(ing.queue), ingestDrainRun)
	if n == 0 {
		return nil
	}
	run, rest := ing.queue[:n:n], ing.queue[n:]
	if len(rest) == 0 {
		rest = nil // the run still aliases the array; the next enqueue starts a fresh one
	}
	ing.queue = rest
	for _, it := range run {
		ing.points -= len(it.pts)
	}
	return run
}

// ingestWorker drains the queue until shutdown.
func (e *Engine) ingestWorker() {
	ing := e.ing
	for {
		ing.mu.Lock()
		run := ing.take()
		if run == nil {
			if ing.closing || ing.killed {
				ing.mu.Unlock()
				return
			}
			ing.cond.Wait()
			ing.mu.Unlock()
			continue
		}
		killed := ing.killed
		ing.mu.Unlock()
		// Freed capacity: release writers blocked on a full queue.
		ing.cond.Broadcast()
		if killed {
			resolveRun(run, errEngineClosed)
		} else {
			resolveRun(run, e.applyRun(run))
		}
	}
}

// resolveRun releases every item of a run to its waiting caller, with one
// shared outcome.
func resolveRun(run []ingestItem, err error) {
	for _, it := range run {
		if err != nil {
			it.res.mu.Lock()
			if it.res.err == nil {
				it.res.err = err
			}
			it.res.mu.Unlock()
		}
		it.res.finish(1)
	}
}

// applyRun applies one run of queued items: all WAL records committed as
// one group under a single engine-lock hold, then the memtable
// inserts, then at most one flush when a series crossed the threshold. An
// error fails the whole run — faultfs.ErrCrash verbatim for the torture
// harness, ENOSPC classified into read-only mode. A commit failure leaves
// the memtable untouched; a flush failure loses nothing (the points are in
// the memtable and the WAL) and reports a retryable error.
func (e *Engine) applyRun(run []ingestItem) error {
	// The drain site crashes before the engine is touched: the run's
	// records are not yet in the WAL, so the kill loses whole entries,
	// never parts of one.
	if err := e.step("ingest.drain"); err != nil {
		return e.classifyWrite(err)
	}
	// The records are encoded before the lock is taken: the encoding reads
	// only the run, and the lock hold stays what needs it.
	var recs []wal.Record
	if e.wal != nil {
		recs = encodeRun(run)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return errEngineClosed
	}
	if e.wal != nil {
		if err := e.step("wal.append"); err != nil {
			return e.classifyWrite(err)
		}
		// The commit claims the flush watermark inside the log, so the
		// records' segment cannot retire before the next flush checkpoint —
		// and that checkpoint cannot race in between the commit and the
		// memtable update because we hold the engine lock.
		if err := e.wal.Commit(recs); err != nil {
			return e.classifyWrite(err)
		}
		e.met.walRecords.Add(int64(len(recs)))
		if err := e.step("wal.appended"); err != nil {
			return e.classifyWrite(err)
		}
	}
	full := false
	for _, it := range run {
		full = e.memAppend(it.seriesID, it.pts) || full
		e.met.pointsWritten.Add(int64(len(it.pts)))
	}
	if !full {
		return nil
	}
	n, err := e.flushLocked()
	return e.afterFlush(n, false, err)
}

// encodeRun encodes a run's insert records into one buffer of exactly
// their total size, each record's payload a sub-slice of it.
func encodeRun(run []ingestItem) []wal.Record {
	size := 0
	for _, it := range run {
		size += insertSize(it.seriesID, it.pts)
	}
	buf := make([]byte, 0, size)
	recs := make([]wal.Record, len(run))
	for i, it := range run {
		start := len(buf)
		buf = appendInsert(buf, it.seriesID, it.pts)
		recs[i].Payload = buf[start:len(buf):len(buf)]
	}
	return recs
}

// memAppend is the only place points enter a memtable — applyRun for live
// writes, replayRecord during recovery. It marks the touched pyramid cells
// stale first and reports whether the series' buffer reached the flush
// threshold. Caller holds e.mu (or is single-threaded Open).
func (e *Engine) memAppend(id string, pts []series.Point) (full bool) {
	e.markStalePoints(id, pts)
	e.mem[id] = append(e.mem[id], pts...)
	e.memPts += len(pts)
	return len(e.mem[id]) >= e.opts.FlushThreshold
}

// stopIngest shuts the ingest subsystem down. drain=true (Close) lets the
// worker finish everything already queued; drain=false (Kill) fails the
// queued items instead. Either way the worker has exited when this
// returns, so callers may take e.mu afterwards. Safe to call when no
// worker was ever started, and idempotent.
func (e *Engine) stopIngest(drain bool) {
	ing := e.ing
	ing.mu.Lock()
	if drain {
		ing.closing = true
	} else {
		ing.killed = true
	}
	ing.mu.Unlock()
	ing.cond.Broadcast()
	// Ensure the started.Do slot is burned so wg.Wait() covers a racing
	// startIngestWorker (its worker would see closing/killed and exit).
	ing.started.Do(func() {})
	ing.wg.Wait()
	// Anything still queued (killed, or enqueued after the worker exited)
	// fails rather than dangling a waiter.
	ing.mu.Lock()
	leftovers := ing.queue
	ing.queue, ing.points = nil, 0
	ing.mu.Unlock()
	resolveRun(leftovers, errEngineClosed)
	ing.cond.Broadcast()
}
