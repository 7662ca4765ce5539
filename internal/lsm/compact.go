package lsm

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"m4lsm/internal/mergeread"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
	"m4lsm/internal/tsfile"
)

// Compact merges every flushed chunk of every series into fresh,
// non-overlapping chunks, applying all deletes, and removes the old chunk
// files and delete sidecar entries. Shards compact concurrently — each
// writes its own sequence file — up to the GOMAXPROCS budget (sequentially
// under a StepHook, keeping fault schedules deterministic).
//
// The paper's experiments run with compaction disabled (Table 4,
// NO_COMPACTION) because overlapping chunks are exactly the state M4-LSM
// targets; Compact exists as the standard LSM maintenance operation that
// bounds read amplification over time. After Compact, every chunk's
// metadata is exact again (no pending deletes or overwrites), so M4-LSM
// degenerates to its pure metadata fast path.
func (e *Engine) Compact() error {
	if err := e.writable(); err != nil {
		return err
	}
	e.lockAll()
	defer e.unlockAll()
	if e.closed.Load() {
		return fmt.Errorf("lsm: engine closed")
	}
	compactStart := time.Now()
	defer func() {
		e.met.compactions.Inc()
		e.met.compactSecs.Observe(time.Since(compactStart).Seconds())
	}()
	// Memtable contents ride along: flush first so the merge sees them.
	for _, sh := range e.shards {
		if _, err := e.flushShardLocked(sh); err != nil {
			return err
		}
	}
	// Quarantined chunks cannot be read (their bytes fail CRC); the merge
	// excludes them, and the files holding them are set aside below instead
	// of being removed, so the corrupt bytes stay available for salvage.
	e.quarMu.Lock()
	quar := make(map[chunkID]bool, len(e.quarantined))
	for id := range e.quarantined {
		quar[id] = true
	}
	e.quarMu.Unlock()
	mods := e.modsLog()

	// Write each shard's compacted generation to a fresh file before
	// touching the old ones; a crash (or error) between here and the swap
	// below leaves both generations on disk, and duplicate points merge
	// idempotently. The merged output is in order, so it belongs to the
	// sequence space. Series merge in sorted-id order within each shard, so
	// the compacted layout is deterministic for a given shard count.
	type shardGen struct {
		merged map[string]series.Series
		reader *tsfile.Reader
		path   string
	}
	gens := make([]shardGen, len(e.shards))
	everything := series.TimeRange{Start: -(1 << 62), End: 1 << 62}
	err := runShardPool(e.shardParallelism(), len(e.shards), func(i int) error {
		sh := e.shards[i]
		ids := make([]string, 0, len(sh.chunks))
		for id := range sh.chunks {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		merged := make(map[string]series.Series, len(ids))
		for _, id := range ids {
			snap := &storage.Snapshot{SeriesID: id}
			for _, ce := range sh.chunks[id] {
				if quar[chunkID{ce.meta.SeriesID, ce.meta.Version}] {
					continue
				}
				snap.Chunks = append(snap.Chunks, storage.NewChunkRef(ce.meta, ce.src, nil))
			}
			snap.Deletes = mods.ForSeries(id)
			data, err := mergeread.Merge(snap, everything)
			if err != nil {
				return fmt.Errorf("lsm: compact %s: %w", id, err)
			}
			if len(data) > 0 {
				merged[id] = data
			}
		}
		gens[i].merged = merged
		if len(merged) == 0 {
			return nil
		}
		name := fmt.Sprintf("%06d.seq.tsf", e.fileSeq.Add(1)-1)
		path := filepath.Join(e.opts.Dir, name)
		w, err := tsfile.Create(path)
		if err != nil {
			return err
		}
		for _, id := range ids {
			data := merged[id]
			for len(data) > 0 {
				n := len(data)
				if n > e.opts.FlushThreshold {
					n = e.opts.FlushThreshold
				}
				if _, err := w.WriteChunk(id, e.allocVersion(), e.opts.Codec, data[:n]); err != nil {
					w.Abort()
					return err
				}
				data = data[n:]
			}
		}
		if err := w.Close(); err != nil {
			return err
		}
		r, err := tsfile.Open(path)
		if err != nil {
			return fmt.Errorf("lsm: reopen compacted file: %w", err)
		}
		gens[i].reader = r
		gens[i].path = path
		return nil
	})
	if err != nil {
		// Drop whatever new-generation files were staged; the old
		// generation was never touched and stays authoritative.
		for _, g := range gens {
			if g.reader != nil {
				g.reader.Close()
				os.Remove(g.path)
			}
		}
		return e.classifyWrite(err)
	}

	// Swap in the new generation: the old files are unlinked but their
	// handles stay open until engine Close, so snapshots taken before this
	// compaction can still read the chunks they reference.
	e.fileMu.Lock()
	oldFiles := e.files
	e.files = nil
	for _, g := range gens {
		if g.reader != nil {
			e.files = append(e.files, g.reader)
		}
	}
	// The unsequence space is folded into the new sequence generation.
	e.unseqFiles = 0
	e.fileMu.Unlock()
	for i, sh := range e.shards {
		sh.chunks = make(map[string][]chunkEntry)
		sh.maxSeqTime = make(map[string]int64)
		if r := gens[i].reader; r != nil {
			src := e.sourceFor(r)
			for _, m := range r.Metas() {
				sh.chunks[m.SeriesID] = append(sh.chunks[m.SeriesID], chunkEntry{meta: m, src: src})
			}
		}
		for id, data := range gens[i].merged {
			sh.maxSeqTime[id] = data[len(data)-1].T
		}
	}
	retire := func() error {
		e.fileMu.Lock()
		defer e.fileMu.Unlock()
		for _, f := range oldFiles {
			hasQuarantined := false
			for _, m := range f.Metas() {
				if quar[chunkID{m.SeriesID, m.Version}] {
					hasQuarantined = true
					break
				}
			}
			if hasQuarantined {
				if _, err := tsfile.SetAside(f.Path()); err != nil {
					return fmt.Errorf("lsm: quarantine pre-compaction file: %w", err)
				}
				e.badFiles++
			} else if err := os.Remove(f.Path()); err != nil {
				return fmt.Errorf("lsm: remove pre-compaction file: %w", err)
			}
			e.retired = append(e.retired, f)
		}
		return nil
	}
	if err := retire(); err != nil {
		return err
	}
	// Deletes are folded into the compacted chunks; reset the sidecar.
	if err := e.resetMods(); err != nil {
		return err
	}
	// The WAL may still hold delete records (they don't count toward the
	// flush threshold, so a flush can skip the reset). Everything in it
	// is now durable in the compacted generation; drop it so recovery does
	// not resurrect folded-in tombstones.
	if e.wal != nil {
		if err := e.step("compact.walreset"); err != nil {
			return err
		}
		if err := e.wal.Reset(); err != nil {
			return err
		}
	}
	// Every quarantined chunk belonged to the retired generation.
	e.quarMu.Lock()
	e.quarantined = make(map[chunkID]error)
	e.quarMu.Unlock()
	// Compaction preserves the merged view, so existing cells stay valid;
	// but with every memtable flushed and quarantined data folded away this
	// is the cheapest moment to rebuild whatever is stale and persist the
	// manifest.
	for _, sh := range e.shards {
		if err := e.pyrRebuildShard(sh); err != nil {
			return err
		}
	}
	return e.pyrMaybeSave()
}

// resetMods replaces the delete sidecar with an empty one. Caller holds all
// shard locks.
func (e *Engine) resetMods() error {
	path := filepath.Join(e.opts.Dir, "deletes.mods")
	if err := e.modsLog().Close(); err != nil {
		return fmt.Errorf("lsm: close mods: %w", err)
	}
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("lsm: remove mods: %w", err)
	}
	mods, err := tsfile.OpenModLog(path)
	if err != nil {
		return fmt.Errorf("lsm: reopen mods: %w", err)
	}
	e.mods.Store(mods)
	return nil
}
