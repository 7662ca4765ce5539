package lsm

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"m4lsm/internal/mergeread"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
	"m4lsm/internal/tsfile"
)

// Compact merges every flushed chunk of every series into fresh,
// non-overlapping chunks of one new chunk file, applying all deletes,
// and removes the old chunk files and delete sidecar entries.
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
	e.mu.Lock()
	defer e.unlock()
	if e.closed.Load() {
		return errEngineClosed
	}
	compactStart := time.Now()
	err := e.compactLocked()
	e.met.compactions.Inc()
	e.met.compactSecs.Observe(time.Since(compactStart).Seconds())
	// One classified exit, as for a flush: ENOSPC at any stage flips the
	// engine read-only with the typed error.
	return e.classifyWrite(err)
}

// compactLocked does Compact's work under e.mu.
func (e *Engine) compactLocked() error {
	// Memtable contents ride along: flush first so the merge sees them.
	// The flush's checkpoint also empties the WAL, deletes included, so
	// recovery cannot resurrect a tombstone the merge folds in.
	if _, err := e.flushLocked(); err != nil {
		return err
	}
	// Write the compacted generation to a fresh file before touching the
	// old ones; a crash (or error) between here and the swap below leaves
	// both generations on disk, and duplicate points merge idempotently.
	// Series merge in sorted-id order, so the compacted layout is
	// deterministic. Quarantined chunks cannot be read (their bytes fail
	// CRC): the snapshot builder leaves them out, compactSeries quarantines
	// any it finds corrupt itself, and the files holding them are set aside
	// below instead of being removed, so the corrupt bytes stay available
	// for salvage.
	ids := make([]string, 0, len(e.chunks))
	for id := range e.chunks {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var merged []run
	for _, id := range ids {
		data, err := e.compactSeries(id)
		if err != nil {
			return fmt.Errorf("lsm: compact %s: %w", id, err)
		}
		if len(data) > 0 {
			merged = append(merged, run{id, data.Columns()})
		}
	}
	r, err := e.writeChunkFile(merged, false)
	if err != nil {
		// The old generation was never touched and stays authoritative.
		return err
	}

	// Swap in the new generation: the old files are unlinked but their
	// handles stay open until engine Close, so snapshots taken before this
	// compaction can still read the chunks they reference.
	oldFiles := e.files
	e.files = nil
	if r != nil {
		e.files = append(e.files, r)
	}
	e.chunks, e.reach, e.nChunks = make(map[string][]storage.ChunkRef), make(map[string][]int64), 0
	if r != nil {
		e.registerChunks(r)
	}
	if err := e.retireFiles(oldFiles); err != nil {
		return err
	}
	// Deletes are folded into the compacted chunks; reset the sidecar.
	if err := e.resetMods(); err != nil {
		return err
	}
	// Every quarantined chunk belonged to the retired generation.
	e.quarantined, e.nQuarantined = make(map[string][]condemned), 0
	// Compaction preserves the merged view, so existing cells stay valid;
	// but with every memtable flushed and quarantined data folded away this
	// is the cheapest moment to rebuild whatever is stale and persist the
	// manifest.
	if err := e.pyrRebuild(); err != nil {
		return err
	}
	return e.pyrSave(0, true)
}

// compactSeries merges every readable chunk of series id. A chunk whose
// bytes fail their CRC or decode check (tsfile.ErrCorrupt) is quarantined,
// as a query would, and the series is merged without it; any other read
// error fails the merge. Caller holds e.mu.
func (e *Engine) compactSeries(id string) (series.Series, error) {
	snap := e.seriesSnapshot(id, everything, nil)
	// The lenient read reports each unreadable chunk here, one at a time
	// (Parallelism 1), while this goroutine waits holding e.mu, and merges
	// the rest.
	var failed error
	snap.OnQuarantine = func(meta storage.ChunkMeta, err error) {
		if errors.Is(err, tsfile.ErrCorrupt) {
			e.quarantineLocked(meta, err)
		} else {
			failed = cmp.Or(failed, err)
		}
	}
	var data series.Series
	err := mergeread.Read(context.Background(), []*storage.Snapshot{snap}, "", mergeread.Options{Parallelism: 1},
		func(_ int, l *mergeread.Loaded, _ int, _ *mergeread.Clock) error {
			data = l.Series(everything)
			return nil
		})
	if err = cmp.Or(err, failed); err != nil {
		return nil, err
	}
	return data, nil
}

// retireFiles unlinks the pre-compaction generation, setting aside (as
// *.bad) each file that holds a quarantined chunk. The handles stay open
// in e.retired for snapshots that still reference them. Caller holds e.mu.
func (e *Engine) retireFiles(old []*tsfile.Reader) error {
	for _, f := range old {
		if slices.ContainsFunc(f.Metas(), e.isQuarantined) {
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

// resetMods replaces the delete sidecar with an empty one. Caller holds
// e.mu.
func (e *Engine) resetMods() error {
	path := filepath.Join(e.opts.Dir, "deletes.mods")
	if err := e.mods.Close(); err != nil {
		return fmt.Errorf("lsm: close mods: %w", err)
	}
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("lsm: remove mods: %w", err)
	}
	mods, err := tsfile.OpenModLog(path)
	if err != nil {
		return fmt.Errorf("lsm: reopen mods: %w", err)
	}
	e.mods = mods
	return nil
}
