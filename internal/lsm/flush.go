package lsm

import (
	"cmp"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"m4lsm/internal/series"
	"m4lsm/internal/storage"
	"m4lsm/internal/tsfile"
)

// Flush persists the memtables as chunk files and clears the WAL.
func (e *Engine) Flush() error {
	if err := e.writable(); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.unlock()
	if e.closed.Load() {
		return errEngineClosed
	}
	n, err := e.flushLocked()
	return e.afterFlush(n, true, err)
}

// afterFlush is the one tail every flush site runs — applyRun,
// Flush and Close, each with e.mu held: save the pyramid manifest when it
// is due (pyrSave), which an explicit checkpoint (Flush, Close) always
// makes it. Errors are classified, so ENOSPC anywhere in the flush, its WAL
// checkpoint or the manifest save flips the engine read-only with the typed
// error instead of surfacing as an anonymous I/O failure; a failed flush
// loses nothing (memtable + WAL still hold the points).
func (e *Engine) afterFlush(flushed int, checkpoint bool, err error) error {
	if err == nil {
		err = e.pyrSave(flushed, checkpoint)
	}
	return e.classifyWrite(err)
}

// flushLocked persists the memtables as one chunk file, writing each
// series' columns as they are, split at its watermark so its late points
// stay apart from its in-order ones the way IoTDB's
// sequence/unsequence spaces do (reference [26] of the paper): points at or
// before the series' watermark, the latest Last.T of its live flushed
// chunks (the last of its reach), form its late run; the rest its in-order
// run, whose chunks never overlap a flushed one. The file holds every
// series' late run, in id order, then every in-order run. With empty
// memtables it writes nothing but still rebuilds the pyramid and
// checkpoints the WAL: deletes and quarantines since the last flush may
// have staled cells over flushed data, and deletes left records in the
// log. Returns the number of points flushed. Caller holds e.mu.
func (e *Engine) flushLocked() (int, error) {
	flushStart, flushPts := time.Now(), e.memPts
	ids := make([]string, 0, len(e.mem))
	for id, m := range e.mem {
		if m.cols.Len() > 0 {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	var late, inOrder []run
	for _, id := range ids {
		ts, vs := e.mem[id].cols.Times(), e.mem[id].cols.Values()
		split := 0
		if reach := e.reach[id]; len(reach) > 0 {
			wm := reach[len(reach)-1]
			split = sort.Search(len(ts), func(i int) bool { return ts[i] > wm })
		}
		if split > 0 {
			late = append(late, run{id, series.NewColumns(ts[:split], vs[:split])})
		}
		if split < len(ts) {
			inOrder = append(inOrder, run{id, series.NewColumns(ts[split:], vs[split:])})
		}
	}
	r, err := e.writeChunkFile(append(late, inOrder...), true)
	if err != nil {
		return 0, err
	}
	if r != nil {
		e.files = append(e.files, r)
		e.registerChunks(r)
	}
	// Snapshots may still hold the flushed columns: they are never reused.
	e.mem = make(map[string]memtable)
	e.memPts = 0
	// The memtable is empty and the flushed chunks published: e.chunks
	// plus the mods sidecar are the full merged state, so rebuild the
	// stale pyramid cells now. Only the fault hook can fail this.
	if err := e.pyrRebuild(); err != nil {
		return 0, err
	}
	// Checkpoint while still holding e.mu: every WAL record so far is now
	// durable in chunk files or the mods sidecar, and no new write can race
	// in before the checkpoint lands.
	if err := e.wal.Checkpoint(); err != nil {
		return 0, err
	}
	if flushPts > 0 {
		e.met.flushes.Inc()
		e.met.flushedPoints.Add(int64(flushPts))
		e.met.flushSeconds.Observe(time.Since(flushStart).Seconds())
	}
	return flushPts, nil
}

// run is one series' points bound for a chunk file, sorted and
// deduplicated.
type run struct {
	id   string
	cols series.Columns
}

// writeChunkFile is the one chunk-file writer, shared by flush and
// compaction: it writes each run, in order, as chunks of at most
// FlushThreshold points, so big batches still yield paper-sized chunks,
// into a fresh file, and reopens it for reading. It returns nil when runs
// is empty. Registering the file is the caller's job. Flushes pass steps:
// each stage is then a fault-injection site, and a step-hook "crash"
// mid-file leaves the partial bytes on disk (Crash), unlike a write error,
// which cleans up (Abort) — recovery sets the footer-less leftover aside
// and replays the WAL. Compaction's writes are not step sites. Caller
// holds e.mu.
func (e *Engine) writeChunkFile(runs []run, steps bool) (*tsfile.Reader, error) {
	if len(runs) == 0 {
		return nil, nil
	}
	name := fmt.Sprintf("%06d.tsf", e.fileSeq)
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
	for _, rn := range runs {
		for ts, vs := rn.cols.Times(), rn.cols.Values(); len(ts) > 0; {
			n := min(len(ts), e.opts.FlushThreshold)
			if err := step("chunk"); err != nil {
				w.Crash()
				return nil, err
			}
			if _, err := w.WriteChunk(rn.id, e.allocVersion(), series.NewColumns(ts[:n], vs[:n])); err != nil {
				w.Abort()
				return nil, err
			}
			ts, vs = ts[n:], vs[n:]
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

// registerChunks adds every chunk of rs to its series' list, behind one
// chunk source per file: appended past the list's published length, then
// published in order. Caller holds e.mu (or is single-threaded Open).
func (e *Engine) registerChunks(rs ...*tsfile.Reader) {
	for _, r := range rs {
		src := e.sourceFor(r)
		for _, m := range r.Metas() {
			e.chunks[m.SeriesID] = append(e.chunks[m.SeriesID], storage.NewChunkRef(m, src))
		}
		e.nChunks += len(r.Metas())
	}
	for id, refs := range e.chunks {
		if len(refs) > len(e.reach[id]) {
			e.publish(id, refs)
		}
	}
}

// byStart is the registry's order: by first timestamp, ties by version.
func byStart(a, b storage.ChunkRef) int {
	return cmp.Or(cmp.Compare(a.Meta.First.T, b.Meta.First.T), cmp.Compare(a.Meta.Version, b.Meta.Version))
}

// publish installs refs as series id's chunk list, whose first n chunks,
// n the length of its reach, are published already, in order. Chunks past
// n keep their place when they start at or after every chunk before them,
// as a flush's in-order chunks do; otherwise the list is sorted into a fresh
// array. So no writer rewrites an element below a published length, and a
// snapshot borrows its window without a copy. reach[i] is the latest
// Last.T of refs[:i+1]. Caller holds e.mu.
func (e *Engine) publish(id string, refs []storage.ChunkRef) {
	n := len(e.reach[id])
	if !slices.IsSortedFunc(refs[max(n-1, 0):], byStart) {
		refs, n = slices.Clone(refs), 0
		slices.SortFunc(refs, byStart)
	}
	reach, last := e.reach[id][:n], int64(math.MinInt64)
	if n > 0 {
		last = reach[n-1]
	}
	for _, c := range refs[n:] {
		last = max(last, c.Meta.Last.T)
		reach = append(reach, last)
	}
	e.chunks[id], e.reach[id] = refs, reach
}
