// Package m4lsm is an LSM-based time-series store with a database-native
// M4 visualization operator, a Go reproduction of "Time Series
// Representation for Visualization in Apache IoTDB" (SIGMOD 2024).
//
// A DB stores time series as write-once chunks with per-chunk metadata
// (first/last/bottom/top points) plus append-only range deletes, exactly
// the storage shape of the paper's §2.2. The M4 method computes, for each
// of w time spans, the four representation points that render a pixel-
// perfect two-color line chart. Two operators are available:
//
//   - OperatorLSM (default): the paper's chunk-merge-free M4-LSM, which
//     answers from chunk metadata, verifies candidates against deletes and
//     overwrites, and loads chunk data only when unavoidable.
//   - OperatorUDF: the baseline that merges every chunk online and scans
//     the assembled series.
//
// Basic usage:
//
//	db, err := m4lsm.Open(dir)
//	db.Write("root.sensor", m4lsm.Point{Time: 1000, Value: 21.5})
//	aggs, stats, err := db.M4("root.sensor", 0, 10_000, 1000)
//
// or through the SQL-ish surface of the paper's Appendix A.1:
//
//	res, err := db.Query(`SELECT M4(*) FROM root.sensor
//	    WHERE time >= 0 AND time < 10000 GROUP BY SPANS(1000)`)
package m4lsm

import (
	"context"
	"fmt"
	"time"

	"m4lsm/internal/encoding"
	"m4lsm/internal/govern"
	"m4lsm/internal/lsm"
	"m4lsm/internal/m4"
	"m4lsm/internal/m4ql"
	"m4lsm/internal/reprops"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
)

// Point is a single time-value observation; Time is in epoch milliseconds.
type Point struct {
	Time  int64
	Value float64
}

// Aggregate holds the four M4 representation points of one time span. When
// Empty is true the span contains no points.
type Aggregate struct {
	First  Point
	Last   Point
	Bottom Point
	Top    Point
	Empty  bool
}

// Stats reports the I/O and compute work of one query.
type Stats struct {
	ChunksLoaded     int64 // full chunk loads
	TimeBlocksLoaded int64 // timestamp-only partial loads
	BytesRead        int64 // encoded bytes read
	PointsDecoded    int64 // points passed through a codec
	CandidateRounds  int64 // M4-LSM candidate generation/verification rounds
	IndexProbes      int64 // chunk-index probes (ExistProbes + BoundaryProbes)
	ExistProbes      int64 // existence checks verifying BP/TP candidates (Table 1 case a)
	BoundaryProbes   int64 // closest-point probes recalculating FP/LP under deletes (Table 1 case b)
	ChunksPruned     int64 // chunks answered purely from metadata
	CacheHits        int64 // loads served from the chunk cache (zero without WithChunkCache)
	CacheMisses      int64 // cached-source loads that paid I/O
}

// Operator selects the physical M4 operator.
type Operator int

// Available operators.
const (
	// OperatorLSM is the paper's chunk-merge-free operator (default).
	OperatorLSM Operator = iota
	// OperatorUDF is the merge-everything baseline.
	OperatorUDF
)

// Option configures Open.
type Option func(*config)

type config struct {
	flushThreshold int
	plainEncoding  bool
	syncWAL        bool
	disableWAL     bool
	cacheBytes     int64
	numShards      int
	disablePyramid bool
}

// WithFlushThreshold sets the number of buffered points per series that
// triggers a flush and bounds chunk size (default 1000, the paper's
// avg_series_point_number_threshold).
func WithFlushThreshold(n int) Option {
	return func(c *config) { c.flushThreshold = n }
}

// WithPlainEncoding disables the Gorilla/delta codecs and stores chunks
// uncompressed.
func WithPlainEncoding() Option {
	return func(c *config) { c.plainEncoding = true }
}

// WithSyncWAL fsyncs the write-ahead log on every write batch.
func WithSyncWAL() Option {
	return func(c *config) { c.syncWAL = true }
}

// WithoutWAL disables write-ahead logging; unflushed writes are lost on a
// crash. Meant for bulk loading.
func WithoutWAL() Option {
	return func(c *config) { c.disableWAL = true }
}

// WithChunkCache bounds an LRU over decoded chunk columns shared by all
// queries (useful for interactive pan/zoom, which re-reads chunks). Off by
// default: the paper's experiments run cold.
func WithChunkCache(bytes int64) Option {
	return func(c *config) { c.cacheBytes = bytes }
}

// WithShards partitions the engine into n shards by series hash: each shard
// owns its memtables, chunk registry and flush accounting under its own
// lock, so writers and flushes of different series proceed concurrently.
// Default 1. The on-disk WAL stays a single file (records are shard-tagged),
// and a database may be reopened with a different shard count.
func WithShards(n int) Option {
	return func(c *config) { c.numShards = n }
}

// WithoutPyramid disables the M4 rollup pyramid: no multi-resolution span
// aggregates are precomputed at flush/compact time and every query computes
// from chunk metadata and data. Results are identical either way; the knob
// exists for A/B comparison and to reclaim the pyramid's (small) flush-time
// and disk overhead when queries never hit the M4 path.
func WithoutPyramid() Option {
	return func(c *config) { c.disablePyramid = true }
}

// DB is an LSM time-series store rooted at a directory. All methods are
// safe for concurrent use.
type DB struct {
	engine *lsm.Engine
}

// Open opens (or creates) a database directory, recovering state from
// chunk files, the delete sidecar and the WAL.
func Open(dir string, opts ...Option) (*DB, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	codec := encoding.CodecGorilla
	if cfg.plainEncoding {
		codec = encoding.CodecPlain
	}
	e, err := lsm.Open(lsm.Options{
		Dir:             dir,
		FlushThreshold:  cfg.flushThreshold,
		Codec:           codec,
		SyncWAL:         cfg.syncWAL,
		DisableWAL:      cfg.disableWAL,
		ChunkCacheBytes: cfg.cacheBytes,
		NumShards:       cfg.numShards,
		DisablePyramid:  cfg.disablePyramid,
	})
	if err != nil {
		return nil, err
	}
	return &DB{engine: e}, nil
}

// Write buffers points for a series. Points may arrive out of order and
// may overwrite earlier timestamps (the latest write wins). It returns
// once the points are in the WAL (synced under a durable configuration).
// Writes pass through a bounded per-shard queue: when that stays saturated
// the call fails with the engine's retryable backpressure error
// (lsm.ErrIngestBackpressure) rather than buffering without bound — back
// off and retry; rewriting the same points is idempotent.
func (db *DB) Write(seriesID string, pts ...Point) error {
	internal := make([]series.Point, len(pts))
	for i, p := range pts {
		internal[i] = series.Point{T: p.Time, V: p.Value}
	}
	return db.engine.Write(seriesID, internal...)
}

// Delete records a range tombstone over the closed time range [start, end]
// of a series.
func (db *DB) Delete(seriesID string, start, end int64) error {
	return db.engine.Delete(seriesID, start, end)
}

// Flush persists buffered writes as chunks.
func (db *DB) Flush() error { return db.engine.Flush() }

// Compact merges all chunks of all series into fresh non-overlapping
// chunks with deletes applied — the standard LSM maintenance operation.
// The paper's experiments run without compaction (its storage states are
// exactly what M4-LSM targets); after Compact, M4 queries hit the pure
// metadata fast path.
func (db *DB) Compact() error { return db.engine.Compact() }

// Close flushes and releases all resources.
func (db *DB) Close() error { return db.engine.Close() }

// SeriesIDs lists every stored series, sorted.
func (db *DB) SeriesIDs() []string { return db.engine.SeriesIDs() }

// M4Options configure one M4 query; the zero value runs the paper's
// default operator (M4-LSM) on every available core.
type M4Options struct {
	// Operator selects the physical operator (default M4-LSM).
	Operator Operator
	// Parallelism bounds the worker goroutines evaluating the query:
	// 0 uses GOMAXPROCS, 1 forces the paper's single-threaded execution.
	// Results are byte-identical at every setting.
	Parallelism int
	// StrictReads fails the query on any unreadable chunk instead of
	// degrading. By default a chunk whose read fails is dropped from the
	// query, the result is marked Partial and a warning describes what
	// was skipped; persistently corrupt chunks (CRC/decode failures) are
	// additionally quarantined out of future queries.
	StrictReads bool
	// MaxChunks, MaxPoints and Timeout set the query's resource budget:
	// at most MaxChunks physical chunk loads, at most MaxPoints decoded
	// points, at most Timeout of wall clock. Zero fields are unlimited.
	// An exceeded budget behaves like an unreadable chunk: the query fails
	// typed (wrapping govern.ErrBudgetExceeded) under StrictReads, and
	// otherwise degrades to a Partial result with warnings.
	MaxChunks int64
	MaxPoints int64
	Timeout   time.Duration
}

// statement turns the root API's arguments into the m4ql statement the one
// read path (m4ql.Read) executes. MaxChunks and MaxPoints travel on the
// context, the way the server's per-query defaults do.
func (o M4Options) statement(ctx context.Context, ids []string, tqs, tqe int64, w int) (context.Context, m4ql.Statement, error) {
	if o.Operator != OperatorLSM && o.Operator != OperatorUDF {
		return nil, m4ql.Statement{}, fmt.Errorf("m4lsm: unknown operator %d", o.Operator)
	}
	ctx = govern.WithLimits(ctx, govern.Limits{MaxChunks: o.MaxChunks, MaxPoints: o.MaxPoints})
	return ctx, m4ql.Statement{
		Series:      ids,
		Query:       m4.Query{Tqs: tqs, Tqe: tqe, W: w},
		Operator:    m4ql.Operator(o.Operator),
		Parallelism: o.Parallelism,
		Strict:      o.StrictReads,
		Timeout:     o.Timeout,
	}, nil
}

// M4 runs an M4 representation query with the default operator (M4-LSM):
// the half-open time range [tqs, tqe) is divided into w spans and the
// first/last/bottom/top points of each are returned.
func (db *DB) M4(seriesID string, tqs, tqe int64, w int) ([]Aggregate, Stats, error) {
	return db.M4WithOptions(seriesID, tqs, tqe, w, M4Options{})
}

// M4With runs an M4 representation query with an explicit operator.
func (db *DB) M4With(seriesID string, tqs, tqe int64, w int, op Operator) ([]Aggregate, Stats, error) {
	return db.M4WithOptions(seriesID, tqs, tqe, w, M4Options{Operator: op})
}

// M4WithOptions runs an M4 representation query with explicit options. The
// tuple form cannot surface warnings, so it always reads strictly: an
// unreadable or quarantined chunk is an error, never silently missing data.
// Use M4Context for graceful degradation.
func (db *DB) M4WithOptions(seriesID string, tqs, tqe int64, w int, opts M4Options) ([]Aggregate, Stats, error) {
	opts.StrictReads = true
	res, err := db.M4Context(context.Background(), seriesID, tqs, tqe, w, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	return res.Aggregates, res.Stats, nil
}

// M4Result is the full output of M4Context: the aggregates plus the
// degradation status of the read path.
type M4Result struct {
	Aggregates []Aggregate
	Stats      Stats
	// Partial is true when unreadable chunks were dropped from the query;
	// the aggregates cover only the chunks that could be read.
	Partial bool
	// Warnings describes each dropped or quarantined chunk.
	Warnings []string
}

// M4Context runs an M4 representation query under a context. Cancellation
// stops the query's worker pool and returns ctx.Err(). Unless
// opts.StrictReads is set, unreadable chunks degrade the result instead of
// failing it: they are skipped (corrupt ones quarantined engine-wide) and
// reported in M4Result.Warnings.
func (db *DB) M4Context(ctx context.Context, seriesID string, tqs, tqe int64, w int, opts M4Options) (*M4Result, error) {
	res, err := db.M4MultiContext(ctx, []string{seriesID}, tqs, tqe, w, opts)
	if err != nil {
		return nil, err
	}
	return &M4Result{Aggregates: res[0].Aggregates, Stats: res[0].Stats, Partial: res[0].Partial, Warnings: res[0].Warnings}, nil
}

// RepresentOptions configure one representation query: the usual execution
// knobs plus the representation choice.
type RepresentOptions struct {
	M4Options
	// Representation names the reduction: "m4" (default), "minmax", "lttb"
	// or "minmaxlttb[:ratio]" with ratio in [2, 64] (default 4).
	Representation string
}

// RepresentResult is the output of RepresentContext: the reduced points
// plus the degradation status of the read path.
type RepresentResult struct {
	Points []Point
	Stats  Stats
	// Partial is true when unreadable chunks were dropped from the query.
	Partial bool
	// Warnings describes each dropped or quarantined chunk.
	Warnings []string
}

// Represent runs a representation query — MinMax, LTTB, MinMaxLTTB, or M4
// itself — returning the reduced point list instead of per-span aggregates.
// Like M4, the tuple form always reads strictly; use RepresentContext for
// graceful degradation. The representation argument takes the same names as
// the m4ql REPRESENT clause ("minmax", "lttb", "minmaxlttb:8", ...).
func (db *DB) Represent(seriesID string, tqs, tqe int64, w int, representation string) ([]Point, Stats, error) {
	opts := RepresentOptions{Representation: representation}
	opts.StrictReads = true
	res, err := db.RepresentContext(context.Background(), seriesID, tqs, tqe, w, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	return res.Points, res.Stats, nil
}

// RepresentContext runs a representation query under a context. The
// execution path follows opts.Operator: the default M4-LSM path answers
// minmax/minmaxlttb from chunk metadata and pyramid cells and gives lttb a
// dedicated merge path, while OperatorUDF merges everything and reduces the
// assembled series. Both produce bit-identical points.
func (db *DB) RepresentContext(ctx context.Context, seriesID string, tqs, tqe int64, w int, opts RepresentOptions) (*RepresentResult, error) {
	rep := opts.Representation
	if rep == "" {
		rep = "m4"
	}
	spec, err := reprops.ParseSpec(rep)
	if err != nil {
		return nil, err
	}
	ctx, stmt, err := opts.statement(ctx, []string{seriesID}, tqs, tqe, w)
	if err != nil {
		return nil, err
	}
	stmt.Represent = &spec
	outs, err := m4ql.Read(ctx, db.engine, stmt)
	if err != nil {
		return nil, err
	}
	pts := make([]Point, len(outs[0].Points))
	for i, p := range outs[0].Points {
		pts[i] = publicPoint(p)
	}
	return &RepresentResult{
		Points:   pts,
		Stats:    publicStats(outs[0].Stats),
		Partial:  len(outs[0].Warnings) > 0,
		Warnings: outs[0].Warnings,
	}, nil
}

// SeriesAggregates is one series' share of a multi-series M4 query.
type SeriesAggregates struct {
	SeriesID   string
	Aggregates []Aggregate
	// Stats counts only this series' work; sum across the slice for the
	// query's total cost.
	Stats Stats
	// Partial/Warnings report degradation of this series' read path.
	Partial  bool
	Warnings []string
}

// M4Multi runs one M4 query over several series as a single batch: all
// series' span×function tasks share one worker pool instead of queueing
// series by series. Results are positional — out[i] belongs to ids[i] — and
// identical to per-series M4 calls. Like M4, the plain form reads strictly.
func (db *DB) M4Multi(ids []string, tqs, tqe int64, w int) ([]SeriesAggregates, error) {
	return db.M4MultiContext(context.Background(), ids, tqs, tqe, w, M4Options{StrictReads: true})
}

// M4MultiContext is M4Multi under a context with explicit options.
// Cancellation stops the shared pool and returns ctx.Err(); without
// opts.StrictReads, unreadable chunks degrade only the series they belong
// to, reported in that series' Partial/Warnings.
func (db *DB) M4MultiContext(ctx context.Context, ids []string, tqs, tqe int64, w int, opts M4Options) ([]SeriesAggregates, error) {
	ctx, stmt, err := opts.statement(ctx, ids, tqs, tqe, w)
	if err != nil {
		return nil, err
	}
	outs, err := m4ql.Read(ctx, db.engine, stmt)
	if err != nil {
		return nil, err
	}
	res := make([]SeriesAggregates, len(outs))
	for i, o := range outs {
		res[i] = SeriesAggregates{
			SeriesID:   o.SeriesID,
			Aggregates: publicAggregates(o.Aggregates),
			Stats:      publicStats(o.Stats),
			Partial:    len(o.Warnings) > 0,
			Warnings:   o.Warnings,
		}
	}
	return res, nil
}

// Query parses and executes a query in the SQL-ish form of the paper's
// Appendix A.1, e.g.
//
//	SELECT M4(*) FROM root.kob WHERE time >= 0 AND time < 1000000
//	GROUP BY SPANS(1000) USING LSM
func (db *DB) Query(query string) (*QueryResult, error) {
	return db.QueryContext(context.Background(), query)
}

// QueryContext is Query under a context: cancellation aborts the query and
// returns ctx.Err().
func (db *DB) QueryContext(ctx context.Context, query string) (*QueryResult, error) {
	res, err := m4ql.RunContext(ctx, db.engine, query)
	if err != nil {
		return nil, err
	}
	return &QueryResult{Result: res}, nil
}

// QueryResult is the tabular output of DB.Query. It embeds the m4ql result
// (columns, one row per non-empty span, timing and cost stats) and renders
// with Text.
type QueryResult struct {
	*m4ql.Result
}

// Info summarizes storage state.
type Info struct {
	Files          int
	UnseqFiles     int // files holding out-of-order (unsequence) data
	Chunks         int
	MemtablePoints int
	Deletes        int
	Shards         int

	// BadFiles counts chunk files quarantined on disk (renamed *.bad)
	// during crash recovery.
	BadFiles int
	// QuarantinedChunks counts chunks excluded from queries after a CRC
	// or decode failure.
	QuarantinedChunks int
	// ReadOnly reports disk-full degraded mode: writes are rejected with
	// a retryable error while queries keep serving; the engine recovers
	// automatically once space returns. ReadOnlyReason says what tripped it.
	ReadOnly       bool
	ReadOnlyReason string
}

// Info returns storage statistics.
func (db *DB) Info() Info {
	i := db.engine.Info()
	return Info{
		Files:             i.Files,
		UnseqFiles:        i.UnseqFiles,
		Chunks:            i.Chunks,
		MemtablePoints:    i.MemtablePoints,
		Deletes:           i.Deletes,
		Shards:            i.Shards,
		BadFiles:          i.BadFiles,
		QuarantinedChunks: i.QuarantinedChunks,
		ReadOnly:          i.ReadOnly,
		ReadOnlyReason:    i.ReadOnlyReason,
	}
}

func publicPoint(p series.Point) Point { return Point{Time: p.T, Value: p.V} }

func publicAggregates(in []m4.Aggregate) []Aggregate {
	out := make([]Aggregate, len(in))
	for i, a := range in {
		if a.Empty {
			out[i] = Aggregate{Empty: true}
			continue
		}
		out[i] = Aggregate{
			First:  publicPoint(a.First),
			Last:   publicPoint(a.Last),
			Bottom: publicPoint(a.Bottom),
			Top:    publicPoint(a.Top),
		}
	}
	return out
}

func publicStats(s storage.Stats) Stats {
	return Stats{
		ChunksLoaded:     s.ChunksLoaded,
		TimeBlocksLoaded: s.TimeBlocksLoaded,
		BytesRead:        s.BytesRead,
		PointsDecoded:    s.PointsDecoded,
		CandidateRounds:  s.CandidateRounds,
		IndexProbes:      s.IndexProbes,
		ExistProbes:      s.ExistProbes,
		BoundaryProbes:   s.BoundaryProbes,
		ChunksPruned:     s.ChunksPruned,
		CacheHits:        s.CacheHits,
		CacheMisses:      s.CacheMisses,
	}
}
