package lsm

import (
	"errors"
	"math"
	"slices"
	"sort"

	"m4lsm/internal/series"
	"m4lsm/internal/storage"
	"m4lsm/internal/tsfile"
)

// everything is the widest half-open range: every timestamp WriteBatch
// accepts, which excludes math.MaxInt64.
var everything = series.TimeRange{Start: math.MinInt64, End: math.MaxInt64}

// Snapshot returns an immutable view of seriesID for the half-open query
// range r: every chunk whose closed interval overlaps r plus every delete
// intersecting it. The unflushed memtable appears as one in-memory chunk
// with a version above all flushed chunks: its columns as they are, sorted
// on write, borrowed up to their current length (see memAppend).
func (e *Engine) Snapshot(seriesID string, r series.TimeRange) (*storage.Snapshot, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed.Load() {
		return nil, errEngineClosed
	}
	snap := e.seriesSnapshot(seriesID, r, &storage.Warnings{})
	if m := e.mem[seriesID]; m.cols.Len() > 0 {
		if mem := m.chunk(seriesID, storage.Version(e.nextVer)); mem.Meta.OverlapsRange(r) {
			// The borrowed window is cap-limited: this append copies it.
			snap.Chunks = append(snap.Chunks, mem)
		}
	}
	snap.OnQuarantine = func(meta storage.ChunkMeta, err error) {
		// Only CRC/decode failures are permanent: the bytes on disk are
		// wrong and every retry would fail. Transient read errors (I/O
		// hiccups, injected faults) stay retryable on the next query.
		// Query workers call this after Snapshot released e.mu, which
		// quarantineChunk takes.
		if !errors.Is(err, tsfile.ErrCorrupt) {
			return
		}
		e.quarantineChunk(meta, err)
	}
	snap.Pyramid = e.pyr.View(seriesID, r)
	return snap, nil
}

// seriesSnapshot is the one place a series' flushed state is selected, for
// queries, pyramid rebuilds and compaction alike: every chunk overlapping
// the half-open range r that is not quarantined, and every delete
// overlapping r, in append order. A quarantined chunk overlapping r is
// noted in warn (nil: silently). The chunk list is the registry's window of
// chunks starting before r ends whose reach gets to r, borrowed cap-limited
// so an append copies it; a copy is filtered only if a chunk nested in a
// longer one ends before r. Caller holds e.mu.
func (e *Engine) seriesSnapshot(id string, r series.TimeRange, warn *storage.Warnings) *storage.Snapshot {
	snap := &storage.Snapshot{SeriesID: id, Stats: &storage.Stats{}, Warnings: warn}
	refs, reach := e.chunks[id], e.reach[id]
	lo := sort.Search(len(reach), func(i int) bool { return reach[i] >= r.Start })
	hi := sort.Search(len(refs), func(i int) bool { return refs[i].Meta.First.T >= r.End })
	if r.Start < r.End && lo < hi {
		snap.Chunks = refs[lo:hi:hi]
		// Only a chunk that starts before r, in [lo, mid), can end before it.
		mid := sort.Search(len(refs), func(i int) bool { return refs[i].Meta.First.T >= r.Start })
		before := func(c storage.ChunkRef) bool { return c.Meta.Last.T < r.Start }
		if slices.ContainsFunc(refs[lo:mid], before) {
			snap.Chunks = slices.DeleteFunc(slices.Clone(snap.Chunks), before)
		}
	}
	for _, q := range e.quarantined[id] {
		if q.meta.OverlapsRange(r) {
			warn.Add("chunk %s v%d quarantined, excluded: %v", id, q.meta.Version, q.err)
		}
	}
	// The series' deletes are borrowed cap-limited, like its chunks, when
	// all of them overlap r (the sidecar's lists are append-only), else
	// the overlapping ones are copied into one exact allocation.
	dels := e.mods.Series(id)
	overlaps := func(d storage.Delete) bool { return d.Start < r.End && d.End >= r.Start }
	n := 0
	for _, d := range dels {
		if overlaps(d) {
			n++
		}
	}
	if n == len(dels) {
		snap.Deletes = dels[:n:n]
	} else if n > 0 {
		snap.Deletes = make([]storage.Delete, 0, n)
		for _, d := range dels {
			if overlaps(d) {
				snap.Deletes = append(snap.Deletes, d)
			}
		}
	}
	return snap
}

// SeriesIDs lists every series with buffered or flushed data, sorted. The
// sorted order is load-bearing: wildcard queries expand through it, so the
// result must be deterministic across runs.
func (e *Engine) SeriesIDs() []string {
	e.mu.RLock()
	ids := make([]string, 0, len(e.chunks)+len(e.mem))
	for id := range e.chunks {
		ids = append(ids, id)
	}
	for id, m := range e.mem {
		if _, flushed := e.chunks[id]; m.cols.Len() > 0 && !flushed {
			ids = append(ids, id)
		}
	}
	e.mu.RUnlock()
	sort.Strings(ids)
	return ids
}

// HasSeries reports whether seriesID has any buffered or flushed data.
func (e *Engine) HasSeries(seriesID string) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	_, flushed := e.chunks[seriesID]
	return flushed || e.mem[seriesID].cols.Len() > 0
}

// quarantineChunk excludes a chunk whose bytes failed a CRC or decode
// check from all future snapshots. Shared by the query path (via
// Snapshot.OnQuarantine) and the integrity scrubber, neither of which holds
// e.mu. A chunk compaction already folded away is not quarantined: a query
// or scrub still reading the old generation reports it after the swap.
// Reports whether this call quarantined the chunk.
func (e *Engine) quarantineChunk(meta storage.ChunkMeta, err error) bool {
	e.mu.Lock()
	defer e.unlock()
	return e.quarantineLocked(meta, err)
}

// quarantineLocked is quarantineChunk for a caller that holds e.mu, such
// as compaction.
func (e *Engine) quarantineLocked(meta storage.ChunkMeta, err error) bool {
	id, refs := meta.SeriesID, e.chunks[meta.SeriesID]
	i := slices.IndexFunc(refs, func(c storage.ChunkRef) bool { return c.Meta.Version == meta.Version })
	if i < 0 { // quarantined already, or folded away
		return false
	}
	// A fresh list and reach: snapshots keep the list they borrowed.
	delete(e.reach, id)
	e.publish(id, slices.Concat(refs[:i], refs[i+1:]))
	e.quarantined[id] = append(e.quarantined[id], condemned{meta, err})
	e.nQuarantined++
	e.met.quarantines.Inc()
	// The chunk's points vanish from the merged view; cells that included
	// them are wrong until the next rebuild.
	e.pyr.MarkStale(meta.SeriesID, meta.First.T, meta.Last.T)
	return true
}

// isQuarantined reports whether m is in its series' quarantine list.
// Caller holds e.mu.
func (e *Engine) isQuarantined(m storage.ChunkMeta) bool {
	return slices.ContainsFunc(e.quarantined[m.SeriesID], func(q condemned) bool { return q.meta.Version == m.Version })
}

// sourceFor is the chunk source of a file's reader: the reader itself, or
// its query-time fault-injection wrapper. A failed read is attempted once:
// its error reaches the query that met it, and the next query reads again.
func (e *Engine) sourceFor(r *tsfile.Reader) storage.ChunkSource {
	if e.opts.WrapSource != nil {
		return e.opts.WrapSource(r)
	}
	return r
}
