package lsm

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"m4lsm/internal/cache"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
	"m4lsm/internal/tsfile"
)

// everything is the widest half-open range: every timestamp WriteBatch
// accepts, which excludes math.MaxInt64.
var everything = series.TimeRange{Start: math.MinInt64, End: math.MaxInt64}

// chunkID identifies one immutable chunk across snapshots.
type chunkID struct {
	seriesID string
	version  storage.Version
}

// Snapshot returns an immutable view of seriesID for the half-open query
// range r: every chunk whose closed interval overlaps r plus every delete
// intersecting it. The unflushed memtable appears as one in-memory chunk
// with a version above all flushed chunks.
func (e *Engine) Snapshot(seriesID string, r series.TimeRange) (*storage.Snapshot, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed.Load() {
		return nil, errEngineClosed
	}
	// The memtable's chunk goes last; it is built first so the chunk list
	// is allocated at its exact size.
	var memSrc *storage.MemSource
	var memMeta storage.ChunkMeta
	spare := 0
	if buf := e.mem[seriesID]; len(buf) > 0 {
		src := storage.NewMemSource()
		meta, err := src.AddChunk(seriesID, storage.Version(e.nextVer), series.SortDedup(buf.Clone()))
		if err != nil {
			return nil, fmt.Errorf("lsm: memtable snapshot: %w", err)
		}
		if meta.OverlapsRange(r) {
			memSrc, memMeta, spare = src, meta, 1
		}
	}
	snap := e.seriesSnapshot(seriesID, r, spare, &storage.Warnings{})
	if spare > 0 {
		snap.Chunks = append(snap.Chunks, storage.NewChunkRef(memMeta, memSrc, snap.Stats))
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
// overlapping r. A quarantined chunk is noted in warn (nil: silently). The
// chunk list is allocated at its exact size plus spare slots for the
// caller. Caller holds e.mu.
func (e *Engine) seriesSnapshot(id string, r series.TimeRange, spare int, warn *storage.Warnings) *storage.Snapshot {
	snap := &storage.Snapshot{SeriesID: id, Stats: &storage.Stats{}, Warnings: warn}
	chunks := e.chunks[id]
	quarantined := func(m storage.ChunkMeta) error { return e.quarantined[chunkID{m.SeriesID, m.Version}] }
	n := spare
	for _, ce := range chunks {
		if ce.meta.OverlapsRange(r) && quarantined(ce.meta) == nil {
			n++
		}
	}
	snap.Chunks = make([]storage.ChunkRef, 0, n)
	for _, ce := range chunks {
		if !ce.meta.OverlapsRange(r) {
			continue
		}
		if qerr := quarantined(ce.meta); qerr != nil {
			warn.Add("chunk %s v%d quarantined, excluded: %v", ce.meta.SeriesID, ce.meta.Version, qerr)
			continue
		}
		snap.Chunks = append(snap.Chunks, storage.NewChunkRef(ce.meta, ce.src, snap.Stats))
	}
	for _, d := range e.mods.ForSeries(id) {
		if d.Start < r.End && d.End >= r.Start {
			snap.Deletes = append(snap.Deletes, d)
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
	for id, buf := range e.mem {
		if _, flushed := e.chunks[id]; len(buf) > 0 && !flushed {
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
	return len(e.chunks[seriesID]) > 0 || len(e.mem[seriesID]) > 0
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
	id := chunkID{meta.SeriesID, meta.Version}
	live := slices.ContainsFunc(e.chunks[meta.SeriesID], func(ce chunkEntry) bool { return ce.meta.Version == meta.Version })
	if _, dup := e.quarantined[id]; dup || !live {
		return false
	}
	e.quarantined[id] = err
	e.met.quarantines.Inc()
	// The chunk's points vanish from the merged view; cells that included
	// them are wrong until the next rebuild.
	e.pyr.MarkStale(meta.SeriesID, meta.First.T, meta.Last.T)
	return true
}

// sourceFor wraps a chunk file reader with query-time fault injection
// (innermost, so cached loads are not re-faulted) and the engine's shared
// cache when caching is enabled. A failed read is attempted once: its
// error reaches the query that met it, and the next query reads again.
func (e *Engine) sourceFor(r *tsfile.Reader) storage.ChunkSource {
	var src storage.ChunkSource = r
	if e.opts.WrapSource != nil {
		src = e.opts.WrapSource(src)
	}
	if e.cache == nil {
		return src
	}
	return cache.Wrap(src, e.cache)
}

// CacheStats reports chunk-cache effectiveness; zero when caching is off.
func (e *Engine) CacheStats() cache.Stats {
	return e.cache.Stats()
}
