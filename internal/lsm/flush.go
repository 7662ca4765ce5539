package lsm

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"m4lsm/internal/encoding"
	"m4lsm/internal/series"
	"m4lsm/internal/tsfile"
)

// Flush persists the memtables as chunk files and clears the WAL.
func (e *Engine) Flush() error {
	if err := e.writable(); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return errEngineClosed
	}
	n, err := e.flushLocked()
	return e.afterFlush(n, true, err)
}

// afterFlush is the one tail every flush site runs — applyRun,
// Flush and Close, each with e.mu held: once points left a memtable, drop
// the WAL segments their checkpoints freed; then save the pyramid manifest
// when it is due (pyrSave), which an explicit checkpoint (Flush, Close)
// always makes it. Errors are classified, so ENOSPC anywhere in flush,
// retirement or the manifest save flips the engine read-only with the typed
// error instead of surfacing as an anonymous I/O failure; a failed flush
// loses nothing (memtable + WAL still hold the points).
func (e *Engine) afterFlush(flushed int, checkpoint bool, err error) error {
	if err == nil && flushed > 0 {
		err = e.wal.Retire()
	}
	if err == nil {
		err = e.pyrSave(flushed, checkpoint)
	}
	return e.classifyWrite(err)
}

// flushLocked persists the memtables, separating in-order data from
// out-of-order arrivals the way IoTDB's sequence/unsequence spaces do
// (reference [26] of the paper): per series, points later than everything
// already flushed go to the sequence file (whose chunks never overlap
// previously flushed ones), the rest to an unsequence file. Returns the
// number of points flushed. Caller holds e.mu.
func (e *Engine) flushLocked() (int, error) {
	flushPts := e.memPts
	if flushPts == 0 {
		// Nothing to write, but deletes and quarantines since the last
		// flush may have staled cells over flushed data: rebuild them now,
		// not at whatever write next fills a memtable.
		return 0, e.pyrRebuild()
	}
	flushStart := time.Now()
	ids := make([]string, 0, len(e.mem))
	for id, buf := range e.mem {
		if len(buf) > 0 {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	seq := map[string]series.Series{}
	unseq := map[string]series.Series{}
	for _, id := range ids {
		data := series.SortDedup(e.mem[id])
		split := 0
		if maxT, ok := e.maxSeqTime[id]; ok {
			split = sort.Search(len(data), func(i int) bool { return data[i].T > maxT })
		}
		if split > 0 {
			unseq[id] = data[:split]
		}
		if split < len(data) {
			seq[id] = data[split:]
			e.maxSeqTime[id] = data[len(data)-1].T
		}
	}
	for _, space := range []struct {
		name string
		data map[string]series.Series
	}{{"unseq", unseq}, {"seq", seq}} {
		r, err := e.writeChunkFile(space.name, ids, space.data, true)
		if err != nil {
			return 0, err
		}
		if r == nil {
			continue
		}
		e.files = append(e.files, r)
		if space.name == "unseq" {
			e.unseqFiles++
		}
		e.registerChunks(r)
	}
	e.mem = make(map[string]series.Series)
	e.memPts = 0
	// The memtable is empty and the flushed chunks registered: e.chunks
	// plus the mods sidecar are the full merged state, so rebuild the
	// stale pyramid cells now. Only the fault hook can fail this.
	if err := e.pyrRebuild(); err != nil {
		return 0, err
	}
	// Checkpoint while still holding e.mu: every WAL record so far is now
	// durable in chunk files, and no new write can race in before the
	// checkpoint lands.
	if err := e.wal.Checkpoint(); err != nil {
		return 0, err
	}
	e.met.flushes.Inc()
	e.met.flushedPoints.Add(int64(flushPts))
	e.met.flushSeconds.Observe(time.Since(flushStart).Seconds())
	return flushPts, nil
}

// writeChunkFile is the one chunk-file writer, shared by flush and
// compaction: it writes each series of data (sorted and deduplicated), in
// ids order, as chunks of at most FlushThreshold points, so big batches
// still yield paper-sized chunks, into a fresh file of the named space, and
// reopens it for reading. It returns nil when data is empty. Registering
// the file is the caller's job. Flushes pass steps: each stage is then a
// fault-injection site, and a step-hook "crash" mid-file leaves the
// partial bytes on disk (Crash), unlike a write error, which cleans up
// (Abort) — recovery sets the footer-less leftover aside and replays the
// WAL. Compaction's writes are not step sites. Caller holds e.mu.
func (e *Engine) writeChunkFile(space string, ids []string, data map[string]series.Series, steps bool) (*tsfile.Reader, error) {
	if len(data) == 0 {
		return nil, nil
	}
	name := fmt.Sprintf("%06d.%s.tsf", e.fileSeq, space)
	e.fileSeq++
	path := filepath.Join(e.opts.Dir, name)
	step := func(stage string) error {
		if !steps {
			return nil
		}
		return e.step("flush." + stage + ":" + name)
	}
	if err := step("create"); err != nil {
		return nil, err
	}
	w, err := tsfile.Create(path)
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		for pts := data[id]; len(pts) > 0; {
			n := min(len(pts), e.opts.FlushThreshold)
			if err := step("chunk"); err != nil {
				w.Crash()
				return nil, err
			}
			if _, err := w.WriteChunk(id, e.allocVersion(), encoding.CodecGorilla, pts[:n]); err != nil {
				w.Abort()
				return nil, err
			}
			pts = pts[n:]
		}
	}
	if err := step("footer"); err != nil {
		w.Crash()
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	if err := step("reopen"); err != nil {
		return nil, err
	}
	r, err := tsfile.Open(path)
	if err != nil {
		return nil, fmt.Errorf("lsm: reopen %s: %w", name, err)
	}
	return r, nil
}

// registerChunks adds every chunk of r to its series' registry, behind
// one chunk source for the file. Caller holds e.mu (or is single-threaded
// Open).
func (e *Engine) registerChunks(r *tsfile.Reader) {
	src := e.sourceFor(r)
	for _, m := range r.Metas() {
		e.chunks[m.SeriesID] = append(e.chunks[m.SeriesID], chunkEntry{meta: m, src: src})
	}
}
