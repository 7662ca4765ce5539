// Package storage defines the LSM storage elements of §2.2 of the paper as
// seen by query operators: read-only chunks described by metadata
// (Definition 2.4), append-only range deletes (Definition 2.5), and the
// snapshot a query runs against. It also owns the cost counters the
// experiments report, so both operators account I/O and decode work the
// same way.
//
// The package is deliberately independent of any file format; package
// tsfile provides the on-disk implementation of ChunkSource and package
// lsm assembles snapshots.
package storage

import (
	"fmt"
	"sync/atomic"

	"m4lsm/internal/m4"
	"m4lsm/internal/series"
	"m4lsm/internal/stepreg"
)

// Version is the global incremental version number κ assigned to each chunk
// or delete; larger versions apply later (§2.2.1).
type Version uint64

// ChunkMeta is the precomputed per-chunk metadata: the four representation
// points {G(C^κ)} plus addressing information. It is read from the chunk
// file footer without touching chunk data.
type ChunkMeta struct {
	SeriesID string
	Version  Version
	Count    int64
	// HeaderLen is the bytes of chunk header before the timestamp block.
	HeaderLen int32

	First  series.Point // FP(C^κ)
	Last   series.Point // LP(C^κ)
	Bottom series.Point // BP(C^κ)
	Top    series.Point // TP(C^κ)

	// Addressing within the chunk file.
	Offset    int64 // file offset of the chunk record
	TimesLen  int64 // bytes of the encoded timestamp block
	ValuesLen int64 // bytes of the encoded value block

	// Step is the step-regression model of the chunk's timestamps (§3.5),
	// fitted once, by the chunk writer, and bound to the timestamps when
	// they are loaded. nil for a chunk that has none (a memtable's), which
	// is probed by binary search.
	Step *stepreg.Model
}

// OverlapsRange reports whether the chunk's closed interval intersects the
// half-open query range r. An empty range overlaps nothing.
func (m ChunkMeta) OverlapsRange(r series.TimeRange) bool {
	return r.Start < r.End && m.First.T < r.End && m.Last.T >= r.Start
}

func (m ChunkMeta) String() string {
	return fmt.Sprintf("chunk{%s v%d n=%d [%d,%d] bottom=%g top=%g}",
		m.SeriesID, m.Version, m.Count, m.First.T, m.Last.T, m.Bottom.V, m.Top.V)
}

// ComputeMeta derives the four representation points of a sorted chunk.
// ok is false for an empty one.
func ComputeMeta(cols series.Columns) (first, last, bottom, top series.Point, ok bool) {
	n := cols.Len()
	if n == 0 {
		return
	}
	ts, vs := cols.Times(), cols.Values()
	lo, hi := 0, 0
	for i, v := range vs[1:] {
		if v < vs[lo] {
			lo = i + 1
		}
		if v > vs[hi] {
			hi = i + 1
		}
	}
	at := func(i int) series.Point { return series.Point{T: ts[i], V: vs[i]} }
	return at(0), at(n - 1), at(lo), at(hi), true
}

// Delete is an append-only range tombstone D^κ deleting the closed time
// range [Start, End] from all chunks with smaller versions (Definition 2.5).
type Delete struct {
	SeriesID string
	Version  Version
	Start    int64 // t_ds, inclusive
	End      int64 // t_de, inclusive
}

// Covers reports t ⊨ D^κ: whether the delete covers timestamp t.
func (d Delete) Covers(t int64) bool { return t >= d.Start && t <= d.End }

func (d Delete) String() string {
	return fmt.Sprintf("delete{%s v%d [%d,%d]}", d.SeriesID, d.Version, d.Start, d.End)
}

// ChunkSource reads chunk contents given their metadata. Implementations:
// tsfile.Reader (disk) and the in-memory chunk of NewMemChunk (memtable
// snapshots, tests).
//
// Ownership: the columns of a chunk file load belong to the query that
// loaded them until it ends, and every other column — a memtable's, a
// cache's — stays shared and read-only. The owning query hands its
// columns back through ChunkRef.Recycle once nothing reads them; no caller
// ever modifies a column.
type ChunkSource interface {
	// ReadChunk decodes the full chunk (timestamps and values).
	ReadChunk(meta ChunkMeta) (series.Columns, error)
	// ReadTimes decodes only the timestamp block. This is the partial
	// load used by BP/TP candidate verification (§3.4): existence
	// probes need timestamps only, at roughly half the I/O and decode
	// cost of a full load.
	ReadTimes(meta ChunkMeta) ([]int64, error)
	// ReadValues decodes only the value block: the rest of a full load
	// for a caller already holding the timestamps from ReadTimes.
	ReadValues(meta ChunkMeta) ([]float64, error)
}

// Recycler is the optional interface of chunk sources whose loads decode
// into columns they can reuse (tsfile.Reader). A wrapper forwards it only
// when no one else can be holding the columns: a cache only while it keeps
// nothing. In-memory chunks and fault-injection wrappers do not implement
// it, so their columns are never recycled.
type Recycler interface {
	// Recycle takes back columns a load of this source returned. Either
	// may be nil.
	Recycle(ts []int64, vs []float64)
}

// ChunkRef binds chunk metadata to its source. Operators load chunk
// contents exclusively through ChunkRef, charging the query's Stats, so
// every experiment accounts cost identically. A ref carries no per-query
// state: the engine's registry hands the same refs to every snapshot.
type ChunkRef struct {
	Meta   ChunkMeta
	source ChunkSource
}

// NewChunkRef builds a reference.
func NewChunkRef(meta ChunkMeta, src ChunkSource) ChunkRef {
	return ChunkRef{Meta: meta, source: src}
}

// Load reads and decodes the full chunk, charging stats (nil: none).
func (c ChunkRef) Load(stats *Stats) (series.Columns, error) {
	data, err := c.source.ReadChunk(c.Meta)
	if err != nil {
		return series.Columns{}, fmt.Errorf("load %v: %w", c.Meta, err)
	}
	c.countLoad(stats)
	return data, nil
}

// LoadValues reads and decodes only the value block, completing a full load
// of a chunk whose timestamps an earlier LoadTimes fetched. It counts as one
// full load, exactly like Load.
func (c ChunkRef) LoadValues(stats *Stats) ([]float64, error) {
	vs, err := c.source.ReadValues(c.Meta)
	if err != nil {
		return nil, fmt.Errorf("load values %v: %w", c.Meta, err)
	}
	c.countLoad(stats)
	return vs, nil
}

// Recycle hands columns this ref's loads returned back to its source,
// when the source is a Recycler. Only the query that loaded them calls it,
// once its workers have joined and nothing reads the columns any more.
func (c ChunkRef) Recycle(ts []int64, vs []float64) {
	if r, ok := c.source.(Recycler); ok {
		r.Recycle(ts, vs)
	}
}

// countLoad attributes one full load to stats.
func (c ChunkRef) countLoad(stats *Stats) {
	if stats != nil {
		atomic.AddInt64(&stats.ChunksLoaded, 1)
		atomic.AddInt64(&stats.BytesRead, int64(c.Meta.HeaderLen)+c.Meta.TimesLen+c.Meta.ValuesLen)
		atomic.AddInt64(&stats.PointsDecoded, c.Meta.Count)
	}
}

// LoadTimes reads and decodes only the timestamp block, charging stats
// (nil: none).
func (c ChunkRef) LoadTimes(stats *Stats) ([]int64, error) {
	ts, err := c.source.ReadTimes(c.Meta)
	if err != nil {
		return nil, fmt.Errorf("load times %v: %w", c.Meta, err)
	}
	if stats != nil {
		atomic.AddInt64(&stats.TimeBlocksLoaded, 1)
		atomic.AddInt64(&stats.BytesRead, int64(c.Meta.HeaderLen)+c.Meta.TimesLen)
		atomic.AddInt64(&stats.PointsDecoded, c.Meta.Count)
	}
	return ts, nil
}

// PyramidSpan is the pyramid's plan for one span of a query: the span's
// cell-aligned interior [Lo, Hi) and the number of precomputed cells tiling
// it. Cells == 0 means the pyramid cannot answer the span.
type PyramidSpan struct {
	Lo, Hi int64
	Cells  int
}

// PyramidSource exposes precomputed multi-resolution rollup cells to the
// query planner. Implementations are snapshots: the cells they fold must
// reflect the same merged state as the Snapshot's chunk list, or answer
// nothing.
type PyramidSource interface {
	// PlanSpans plans every span i of q (len(spans) == len(aggs) == q.W)
	// whose largest cell-aligned interior decomposes into usable cells: it
	// fills spans[i], sets aggs[i] to those cells folded in time order into
	// one aggregate of the fully merged series (latest version wins,
	// deletes applied) over the interior, and returns how many spans it
	// planned. A span left with Cells == 0, and its aggregate untouched —
	// cells there are missing or invalidated by writes the snapshot must
	// observe — falls back to raw chunk reads as a whole. For a planned
	// span, Lo is the first aligned instant >= the span's start and Hi <=
	// its end; the caller computes the two uncovered boundary fragments
	// exactly.
	PlanSpans(q m4.Query, spans []PyramidSpan, aggs []m4.Aggregate) int
}

// Snapshot is the immutable view of one series a query executes against:
// every chunk overlapping the query plus every delete, with shared cost
// counters and a shared warning collector. Chunks may be borrowed from its
// producer and shared with other snapshots: read it, never write it.
type Snapshot struct {
	SeriesID string
	Chunks   []ChunkRef
	Deletes  []Delete
	Stats    *Stats

	// Pyramid, when non-nil, offers precomputed rollup cells consistent
	// with Chunks and Deletes. Operators may ignore it; results must be
	// identical either way.
	Pyramid PyramidSource

	// Warnings collects degradation notes when an operator runs in
	// non-strict mode. May be nil (warnings are discarded).
	Warnings *Warnings

	// OnQuarantine, when set by the snapshot's producer (the LSM engine),
	// is invoked once per chunk whose read failed in non-strict mode, so
	// the engine can quarantine persistently-corrupt chunks across
	// queries. Must be safe for concurrent use.
	OnQuarantine func(meta ChunkMeta, err error)
}

// ReportBadChunk records that a chunk could not be read and was dropped
// from the query: a warning for the result, and a quarantine notification
// for the snapshot's producer.
func (s *Snapshot) ReportBadChunk(meta ChunkMeta, err error) {
	s.Warnings.Add("chunk %s v%d unreadable, skipped: %v", meta.SeriesID, meta.Version, err)
	if s.OnQuarantine != nil {
		s.OnQuarantine(meta, err)
	}
}

// Stats accumulates the I/O and decode work of a query. The experiment
// harness resets it per query and reports it next to wall-clock latency.
//
// A Stats pointer is charged by every load of a snapshot's chunks and,
// under the parallel operators, by every worker goroutine: all mutations
// go through sync/atomic, so counting is race-free without a lock.
// Readers that may observe the struct while a query is still running must
// use Load (or the atomic-reading String); plain field reads are safe only
// after the query has returned.
type Stats struct {
	ChunksLoaded     int64 // full chunk loads
	TimeBlocksLoaded int64 // timestamp-only partial loads
	BytesRead        int64 // encoded bytes fetched from the source
	PointsDecoded    int64 // points passed through a codec

	// Operator-level counters (filled by m4lsm).
	CandidateRounds int64 // candidate generation/verification iterations
	IndexProbes     int64 // chunk-index probes (Table 1 cases a and b)
	ExistProbes     int64 // Table 1 case a: existence checks for BP/TP verification
	BoundaryProbes  int64 // Table 1 case b: closest-point probes for FP/LP recalculation
	ChunksPruned    int64 // chunks answered purely from metadata

	// Rollup-pyramid attribution (zero when the snapshot carries no
	// pyramid or the operator ignores it).
	PyramidSpans         int64 // spans answered fully or partially from cells
	PyramidCells         int64 // precomputed cells consulted
	PyramidFallbackSpans int64 // spans that consulted the pyramid but fell back to span×G
}

// fields lists every counter address, shared by the atomic accessors.
func (s *Stats) fields() [12]*int64 {
	return [12]*int64{
		&s.ChunksLoaded, &s.TimeBlocksLoaded, &s.BytesRead, &s.PointsDecoded,
		&s.CandidateRounds, &s.IndexProbes, &s.ExistProbes, &s.BoundaryProbes,
		&s.ChunksPruned, &s.PyramidSpans, &s.PyramidCells, &s.PyramidFallbackSpans,
	}
}

// Sub returns s - o field-wise with plain reads: both sides must be
// settled copies (e.g. from Load). Observability code uses it to compute
// per-phase deltas.
func (s Stats) Sub(o Stats) Stats {
	out := s
	dst, src := out.fields(), o.fields()
	for i, f := range dst {
		*f -= *src[i]
	}
	return out
}

// Map returns the counters keyed by stable lowerCamel names, the form
// traces and /varz expose. The receiver must be a settled copy (from Load).
func (s Stats) Map() map[string]int64 {
	return map[string]int64{
		"chunksLoaded":     s.ChunksLoaded,
		"timeBlocksLoaded": s.TimeBlocksLoaded,
		"bytesRead":        s.BytesRead,
		"pointsDecoded":    s.PointsDecoded,
		"candidateRounds":  s.CandidateRounds,
		"indexProbes":      s.IndexProbes,
		"existProbes":      s.ExistProbes,
		"boundaryProbes":   s.BoundaryProbes,
		"chunksPruned":     s.ChunksPruned,

		"pyramidSpans":         s.PyramidSpans,
		"pyramidCells":         s.PyramidCells,
		"pyramidFallbackSpans": s.PyramidFallbackSpans,
	}
}

// Add accumulates o into s atomically. o is taken by value and read with
// plain loads: callers pass either a literal or a worker-local Stats no
// other goroutine is mutating. Zero fields — most of a task's counters —
// cost no atomic operation.
func (s *Stats) Add(o Stats) {
	dst, src := s.fields(), o.fields()
	for i, f := range dst {
		if d := *src[i]; d != 0 {
			atomic.AddInt64(f, d)
		}
	}
}

// Load returns a copy of the counters read with atomic loads, safe to call
// while workers are still adding. The copy is per-field consistent, not a
// cross-field snapshot.
func (s *Stats) Load() Stats {
	var out Stats
	dst, src := out.fields(), s.fields()
	for i, f := range src {
		*dst[i] = atomic.LoadInt64(f)
	}
	return out
}

func (s *Stats) String() string {
	v := s.Load()
	return fmt.Sprintf("loads=%d timeLoads=%d bytes=%d decoded=%d rounds=%d probes=%d pruned=%d",
		v.ChunksLoaded, v.TimeBlocksLoaded, v.BytesRead, v.PointsDecoded,
		v.CandidateRounds, v.IndexProbes, v.ChunksPruned)
}
