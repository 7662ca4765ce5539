// Engine glue for the M4 rollup pyramid (internal/pyramid): the pyramid
// owns its cells, stale sets and manifest format; the engine decides what
// is live (the chunk registry minus quarantine, read through
// seriesSnapshot), when to rebuild (the end of a flush or compaction, with
// the memtables empty, so e.chunks plus the mods sidecar are exactly the
// merged truth), and where and when the manifest is saved, always under
// e.mu. The pyramid's lock is a leaf: it nests inside e.mu and is never
// held across I/O.
package lsm

import (
	"math"
	"os"
	"path/filepath"
	"time"

	"m4lsm/internal/mergeread"
	"m4lsm/internal/pyramid"
	"m4lsm/internal/series"
)

const pyramidFileName = "pyramid.pyr"

// pyrRebuild rebuilds the stale cells of every series, reading each
// through the same snapshot builder queries use. Caller holds e.mu with the
// memtables empty. Only the StepHook (fault injection) can fail it; read
// errors leave the affected series stale for the next rebuild.
func (e *Engine) pyrRebuild() error {
	ids := e.pyr.Stale()
	if len(ids) == 0 {
		return nil
	}
	start := time.Now()
	defer func() { e.met.pyrRebuildSecs.Observe(time.Since(start).Seconds()) }()
	for _, id := range ids {
		if err := e.step("pyramid.rebuild"); err != nil {
			return err
		}
		// Quarantined chunks are invisible to queries, so they are invisible
		// to cells too; their ranges were marked stale on quarantine.
		first, last := int64(math.MaxInt64), int64(math.MinInt64)
		if refs, reach := e.chunks[id], e.reach[id]; len(refs) > 0 {
			first, last = refs[0].Meta.First.T, reach[len(reach)-1]
		}
		e.pyr.Rebuild(id, first, last, func(r series.TimeRange) (series.Series, error) {
			return mergeread.Merge(e.seriesSnapshot(id, r, nil), r)
		})
	}
	return nil
}

// pyrSave writes the manifest when cells changed since the last save and
// the save is due. An explicit checkpoint (Flush, Close, Compact, scrub's
// heal) is always due. An automatic flush, which passes the points it
// moved, is due once the points flushed since the last save reach the
// distinct points that save encoded (pyrLastSize, restored from the
// manifest on Open): the manifest's codec work then stays at or below the
// chunk codec work that paid for it, and a crash re-marks stale at most
// about pyrLastSize flushed points the watermark does not vouch for, plus
// what the WAL replays. Skipping a save costs rebuild work after a crash,
// never a wrong answer.
//
// Write failures are swallowed: a stale manifest is safe because the
// watermark re-marks anything newer on reopen. Only the StepHook can make
// it fail, simulating a crash between flush and save. Caller holds e.mu,
// so no version is allocated while the state is encoded: the watermark is
// exactly the state's.
func (e *Engine) pyrSave(flushed int, checkpoint bool) error {
	e.pyrUnsaved += int64(flushed)
	if !e.pyr.Dirty() || (!checkpoint && e.pyrUnsaved < e.pyrLastSize) {
		return nil
	}
	if err := e.step("pyramid.save"); err != nil {
		return err
	}
	start := time.Now()
	data := e.pyr.Encode(e.nextVer)
	if err := writeFileAtomic(filepath.Join(e.opts.Dir, pyramidFileName), data); err != nil {
		e.pyr.MarkDirty()
		return nil
	}
	e.pyrUnsaved, e.pyrLastSize = 0, e.pyr.Points()
	e.pyrSaves.Add(1)
	e.met.pyrSaveSecs.Observe(time.Since(start).Seconds())
	return nil
}

// writeFileAtomic replaces path with data: written and fsynced under a
// temporary name, then renamed over it. Shared with backup.go.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// pyrLoad restores the manifest and re-marks everything it may predate:
// chunks and deletes with Version >= the saved watermark, or everything
// when the manifest is missing or corrupt. Runs single-threaded during
// Open, after chunk files and the mods sidecar are loaded and before WAL
// replay (which marks its own ranges).
func (e *Engine) pyrLoad() {
	if e.pyr == nil {
		return
	}
	// wm stays 0 when nothing was restored: every chunk and delete below
	// re-marks stale, which is exactly the no-manifest degradation.
	var wm uint64
	if data, err := os.ReadFile(filepath.Join(e.opts.Dir, pyramidFileName)); err == nil {
		if p, w, err := pyramid.Decode(data); err == nil {
			e.pyr, wm, e.pyrLastSize = p, w, p.Points()
		}
	}
	for id, refs := range e.chunks {
		for _, c := range refs {
			if uint64(c.Meta.Version) >= wm {
				e.pyr.MarkStale(id, c.Meta.First.T, c.Meta.Last.T)
			}
		}
	}
	for _, d := range e.mods.All() {
		if uint64(d.Version) >= wm {
			e.pyr.MarkStale(d.SeriesID, d.Start, d.End)
		}
	}
}

// PyrCheckInvariants verifies the pyramid's parent/child invariants for one
// series (see pyramid.CheckInvariants); the differential harness calls it.
func (e *Engine) PyrCheckInvariants(id string) error { return e.pyr.CheckInvariants(id) }
