// The write path. Every insert — Engine.Write, WriteBatch, the HTTP /write
// handler, bulk loaders — is a batch of per-series entries that travels
//
//	WriteBatch → per-shard bounded queue → append worker → applyRun
//
// and applyRun is the only code that turns entries into WAL records and
// memtable points: one shard-lock hold, one wal.Commit for the run's
// records, memAppend per entry, at most one flush, the shared afterFlush
// tail. The caller blocks until every entry of its batch is resolved — ack
// means "WAL group synced" — so the only thing the queue buys is batching:
// a worker drains a whole run of entries queued by concurrent callers and
// amortizes the lock round-trip and the fsync across them. One append
// worker per shard; a single sequential worker under a StepHook so fault
// schedules stay deterministic.
//
// Backpressure, never unbounded buffering: each shard's queue is capped in
// points. An enqueue that would overflow blocks for at most
// Options.IngestEnqueueWait and then fails with ErrIngestBackpressure, a
// typed retryable error the HTTP layer maps to 429. Nothing is ever
// silently dropped — every entry is either acknowledged durable or its
// batch's error says why not.
//
// Crash atomicity is per WAL record, i.e. per BatchEntry: a crashed batch
// may recover any subset of its entries (each was its own record), but
// never a partial entry. Step sites, in path order: ingest.enqueue (before
// anything is queued), ingest.drain (before a worker touches its shard),
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

// ErrIngestBackpressure marks a write rejected because a shard's ingest
// queue stayed full past the enqueue deadline. The condition is transient
// — workers are draining — so callers should back off and retry; point
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
	defaultIngestQueuePoints = 1 << 16 // per shard
	defaultIngestWait        = 2 * time.Second
	// ingestDrainRun bounds how many queued items one worker round takes:
	// enough to amortize the shard lock and share a group commit, small
	// enough that one round's latency stays bounded.
	ingestDrainRun = 64
)

// BatchEntry is one series' slice of a WriteBatch: it becomes exactly one
// WAL record, the crash-atomicity unit of ingestion.
type BatchEntry struct {
	SeriesID string
	Points   []series.Point
}

// batchResult joins one WriteBatch caller with the workers draining its
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

// ingester owns the per-shard bounded queues and the append workers. One
// mutex guards every queue: queue operations are cheap (slice push/pop);
// the expensive work — WAL group commit, memtable insert, flush — happens
// outside it, so sharing one lock costs nothing and makes a sequential
// single-worker mode (StepHook determinism) trivial.
type ingester struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queues [][]ingestItem // per shard
	points []int          // queued points per shard

	closing bool // no new enqueues; workers drain what is queued, then exit
	killed  bool // workers fail what is queued, then exit

	started sync.Once
	wg      sync.WaitGroup

	// Lifetime counters, surfaced as metrics.
	batches      atomic.Int64
	entries      atomic.Int64
	pointsIn     atomic.Int64
	backpressure atomic.Int64
}

func newIngester(shards int) *ingester {
	ing := &ingester{queues: make([][]ingestItem, shards), points: make([]int, shards)}
	ing.cond = sync.NewCond(&ing.mu)
	return ing
}

// queuedPoints reports the current queue depth across all shards.
func (ing *ingester) queuedPoints() int {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	total := 0
	for _, n := range ing.points {
		total += n
	}
	return total
}

// startIngestWorkers launches the append workers on first use: one per
// shard normally, a single worker walking every shard in index order when
// a StepHook is installed (deterministic drain schedules, like
// shardParallelism).
func (e *Engine) startIngestWorkers() {
	e.ing.started.Do(func() {
		first, n := 0, len(e.shards)
		if e.opts.StepHook != nil {
			first, n = -1, 1
		}
		e.ing.wg.Add(n)
		for i := 0; i < n; i++ {
			go func(ix int) {
				defer e.ing.wg.Done()
				e.ingestWorker(ix)
			}(first + i)
		}
	})
}

// Write buffers points for seriesID. Points may arrive in any order and may
// overwrite earlier timestamps; the latest write for a timestamp wins. A
// flush is triggered automatically when the buffer reaches FlushThreshold.
// It is WriteBatch of one entry — the same queue, WAL record and error
// classes, including the retryable ErrIngestBackpressure when the series'
// shard queue stays saturated.
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
	sh, shardIx := e.shardFor(seriesID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
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
		rec[0] = wal.Record{Payload: encodeDeleteSharded(shardIx, d), Shard: shardIx, Pin: true}
		if err := e.wal.Commit(rec[:]); err != nil {
			return e.classifyWrite(err)
		}
		e.met.walRecords.Inc()
	}
	if err := e.step("mods.append"); err != nil {
		return err
	}
	if err := e.modsLog().Append(d); err != nil {
		return e.classifyWrite(err)
	}
	// On any failure above the pin is kept: conservative, the segment
	// just retires later.
	e.wal.Unpin(rec[0].Seq)
	e.met.deletes.Inc()
	sh.applyDeleteToMem(d)
	return nil
}

// WriteBatch ingests several series' points: entries are enqueued per
// shard (blocking up to Options.IngestEnqueueWait when a queue is full,
// then failing with ErrIngestBackpressure) and the call returns once every
// entry is durable, each entry one group-committed WAL record. On a
// partially enqueued batch the call waits for the entries that did get in,
// then reports the backpressure error; retrying the whole batch is safe
// because point writes are idempotent overwrites.
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
	e.startIngestWorkers()
	limit, wait := e.opts.IngestQueuePoints, e.opts.IngestEnqueueWait
	if limit <= 0 {
		limit = defaultIngestQueuePoints
	}
	if wait == 0 {
		wait = defaultIngestWait
	}
	res := &batchResult{done: make(chan struct{})}
	// The caller holds one reference of its own so a worker finishing the
	// first entry cannot close done while later entries are still being
	// enqueued.
	res.pending.Store(1)
	var queued, queuedPts int64
	var enqErr error
	for _, ent := range entries {
		if len(ent.Points) == 0 {
			continue
		}
		res.pending.Add(1)
		_, shardIx := e.shardFor(ent.SeriesID)
		if enqErr = e.ing.enqueue(shardIx, ingestItem{ent.SeriesID, ent.Points, res}, limit, wait); enqErr != nil {
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

// enqueue adds one item to a shard's queue, blocking while the queue is at
// its point cap, up to wait (<= 0: not at all). The cap is soft by one
// item: a queue below it accepts an item of any size (otherwise an entry
// larger than the cap could never be ingested).
func (ing *ingester) enqueue(shardIx int, item ingestItem, maxPoints int, wait time.Duration) error {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	if ing.points[shardIx] >= maxPoints && wait > 0 {
		// sync.Cond has no timed wait; a timer broadcast bounds the block.
		deadline := time.Now().Add(wait)
		timer := time.AfterFunc(wait, ing.cond.Broadcast)
		defer timer.Stop()
		for ing.points[shardIx] >= maxPoints && !ing.closing && !ing.killed && time.Now().Before(deadline) {
			ing.cond.Wait()
		}
	}
	if ing.closing || ing.killed {
		return errEngineClosed
	}
	if n := ing.points[shardIx]; n >= maxPoints {
		ing.backpressure.Add(1)
		return fmt.Errorf("%w: shard %d holds %d points", ErrIngestBackpressure, shardIx, n)
	}
	ing.queues[shardIx] = append(ing.queues[shardIx], item)
	ing.points[shardIx] += len(item.pts)
	// Wake the shard's worker (and any writer whose timer fired).
	ing.cond.Broadcast()
	return nil
}

// take pops up to ingestDrainRun items from the head of one shard's queue.
func (ing *ingester) take(shardIx int) []ingestItem {
	q := ing.queues[shardIx]
	n := min(len(q), ingestDrainRun)
	if n == 0 {
		return nil
	}
	run, rest := q[:n:n], q[n:]
	if len(rest) == 0 {
		rest = nil // the run still aliases the array; the next enqueue starts a fresh one
	}
	ing.queues[shardIx] = rest
	for _, it := range run {
		ing.points[shardIx] -= len(it.pts)
	}
	return run
}

// ingestWorker drains queue shardIx until shutdown; shardIx -1 is the
// sequential mode: one worker walking every shard in index order.
func (e *Engine) ingestWorker(shardIx int) {
	ing := e.ing
	for {
		ing.mu.Lock()
		var run []ingestItem
		ix := shardIx
		if shardIx >= 0 {
			run = ing.take(shardIx)
		} else {
			for i := range ing.queues {
				if run = ing.take(i); run != nil {
					ix = i
					break
				}
			}
		}
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
			resolveRun(run, e.applyRun(ix, run))
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

// applyRun applies one run of queued items to their shard: all WAL records
// committed as one group under a single shard-lock hold, then the memtable
// inserts, then at most one flush when a series crossed the threshold. An
// error fails the whole run — faultfs.ErrCrash verbatim for the torture
// harness, ENOSPC classified into read-only mode. A commit failure leaves
// the memtable untouched; a flush failure loses nothing (the points are in
// the memtable and the WAL) and reports a retryable error.
func (e *Engine) applyRun(shardIx int, run []ingestItem) error {
	// The drain site crashes before the shard is touched: the run's
	// records are not yet in the WAL, so the kill loses whole entries,
	// never parts of one.
	if err := e.step("ingest.drain"); err != nil {
		return e.classifyWrite(err)
	}
	sh := e.shards[shardIx]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e.closed.Load() {
		return errEngineClosed
	}
	if e.wal != nil {
		if err := e.step("wal.append"); err != nil {
			return e.classifyWrite(err)
		}
		// The commit claims this shard's flush watermark inside the log, so
		// the records' segment cannot retire before the shard's next flush
		// checkpoint — and that checkpoint cannot race in between the commit
		// and the memtable update because we hold the shard lock.
		recs := make([]wal.Record, len(run))
		for i, it := range run {
			recs[i] = wal.Record{Payload: encodeInsertSharded(shardIx, it.seriesID, it.pts), Shard: shardIx}
		}
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
		full = e.memAppend(sh, it.seriesID, it.pts) || full
		e.met.pointsWritten.Add(int64(len(it.pts)))
	}
	if !full {
		return nil
	}
	n, err := e.flushShardLocked(sh)
	return e.afterFlush(n, false, err)
}

// memAppend is the only place points enter a memtable — applyRun for live
// writes, replayRecord during recovery. It marks the touched pyramid cells
// stale first and reports whether the series' buffer reached the flush
// threshold. Caller holds sh.mu (or is single-threaded Open).
func (e *Engine) memAppend(sh *shard, id string, pts []series.Point) (full bool) {
	e.markStalePoints(id, pts)
	sh.mem[id] = append(sh.mem[id], pts...)
	sh.memPts.Add(int64(len(pts)))
	return len(sh.mem[id]) >= e.opts.FlushThreshold
}

// stopIngest shuts the ingest subsystem down. drain=true (Close) lets the
// workers finish everything already queued; drain=false (Kill) fails the
// queued items instead. Either way every worker has exited when this
// returns, so callers may take all shard locks afterwards. Safe to call
// when no worker was ever started, and idempotent.
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
	// startIngestWorkers (its workers would see closing/killed and exit).
	ing.started.Do(func() {})
	ing.wg.Wait()
	// Anything still queued (killed, or enqueued after the last worker
	// exited) fails rather than dangling a waiter.
	ing.mu.Lock()
	var leftovers []ingestItem
	for i := range ing.queues {
		leftovers = append(leftovers, ing.queues[i]...)
		ing.queues[i] = nil
		ing.points[i] = 0
	}
	ing.mu.Unlock()
	resolveRun(leftovers, errEngineClosed)
	ing.cond.Broadcast()
}
