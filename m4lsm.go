// Package m4lsm is an LSM-based time-series store with a database-native
// M4 visualization operator, a Go reproduction of "Time Series
// Representation for Visualization in Apache IoTDB" (SIGMOD 2024).
//
// A DB stores time series as write-once chunks with per-chunk metadata
// (first/last/bottom/top points) plus append-only range deletes, exactly
// the storage shape of the paper's §2.2. It is read through one call,
// QueryContext, which takes a statement in the SQL-ish form of the paper's
// Appendix A.1. An M4 statement computes, for each of w time spans, the four
// representation points that render a pixel-perfect two-color line chart,
// with one of two operators:
//
//   - USING LSM (default): the paper's chunk-merge-free M4-LSM, which
//     answers from chunk metadata, verifies candidates against deletes and
//     overwrites, and loads chunk data only when unavoidable.
//   - USING UDF: the baseline that merges every chunk online and scans the
//     assembled series.
//
// The same statement language covers GROUP BY aggregates, REPRESENT
// reductions (minmax, lttb, minmaxlttb), several series (`FROM a, b` or a
// `root.*` wildcard), TIMEOUT and STRICT. A statement runs on its caller's
// goroutine; concurrent calls run side by side. Basic usage:
//
//	db, err := m4lsm.Open(dir)
//	db.Write("root.sensor", m4lsm.Point{Time: 1000, Value: 21.5})
//	res, err := db.QueryContext(ctx, `SELECT M4(*) FROM root.sensor
//	    WHERE time >= 0 AND time < 10000 GROUP BY SPANS(1000)`)
package m4lsm

import (
	"context"

	"m4lsm/internal/lsm"
	"m4lsm/internal/m4ql"
	"m4lsm/internal/series"
)

// Point is a single time-value observation; Time is in epoch milliseconds.
type Point struct {
	Time  int64
	Value float64
}

// Option configures Open.
type Option func(*lsm.Options)

// WithFlushThreshold sets the number of buffered points per series that
// triggers a flush and bounds chunk size (default 1000, the paper's
// avg_series_point_number_threshold).
func WithFlushThreshold(n int) Option {
	return func(o *lsm.Options) { o.FlushThreshold = n }
}

// WithSyncWAL fsyncs the write-ahead log on every write batch.
func WithSyncWAL() Option {
	return func(o *lsm.Options) { o.SyncWAL = true }
}

// Errors a caller can match with errors.Is. They are the engine's own
// values, so every error that wraps one of them matches.
var (
	// ErrLocked is Open's error for a directory another DB, in this
	// process or another, has open.
	ErrLocked = lsm.ErrLocked
	// ErrIngestBackpressure is Write's error when the bounded write queue
	// stayed full: back off and retry; nothing of the refused write was
	// queued.
	ErrIngestBackpressure = lsm.ErrIngestBackpressure
	// ErrReadOnly is a write's error while the disk is full: the store
	// recovers by itself once space frees up, so back off and retry.
	ErrReadOnly = lsm.ErrReadOnly
)

// DB is an LSM time-series store rooted at a directory. All methods are
// safe for concurrent use.
type DB struct {
	engine *lsm.Engine
}

// Open opens (or creates) a database directory, recovering state from
// chunk files, the delete sidecar and the WAL.
func Open(dir string, opts ...Option) (*DB, error) {
	cfg := lsm.Options{Dir: dir}
	for _, o := range opts {
		o(&cfg)
	}
	e, err := lsm.Open(cfg)
	if err != nil {
		return nil, err
	}
	return &DB{engine: e}, nil
}

// Write buffers points for a series. Points may arrive out of order and
// may overwrite earlier timestamps (the latest write wins). It returns
// once the points are in the WAL (synced under a durable configuration).
// Writes pass through a bounded queue: when that stays saturated the call
// fails with ErrIngestBackpressure rather than buffering without bound, and
// with a full disk it fails with ErrReadOnly — in both cases back off and
// retry; rewriting the same points is idempotent.
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

// QueryContext parses and executes one statement in the SQL-ish form of the
// paper's Appendix A.1, e.g.
//
//	SELECT M4(*) FROM root.kob WHERE time >= 0 AND time < 1000000
//	GROUP BY SPANS(1000) USING LSM
//
// Cancelling ctx aborts the query and returns ctx.Err(). Without a STRICT
// clause an unreadable chunk or an exhausted TIMEOUT degrades the answer
// instead of failing it: the result is then Partial, and Warnings say what
// was skipped. With STRICT the same conditions are errors. EXPLAIN is a
// shell command, not a query, and is rejected.
func (db *DB) QueryContext(ctx context.Context, query string) (*QueryResult, error) {
	res, err := m4ql.RunContext(ctx, db.engine, query)
	if err != nil {
		return nil, err
	}
	return &QueryResult{Result: res}, nil
}

// QueryResult is the tabular output of DB.QueryContext. It embeds the m4ql
// result: Columns and one row per non-empty span (or per point under
// REPRESENT), one Series block each for a multi-series statement, the cost
// counters in Stats, Partial and Warnings, and Text for an aligned table.
type QueryResult struct {
	*m4ql.Result
}

// Info summarizes storage state.
type Info struct {
	Files          int
	Chunks         int
	MemtablePoints int
	Deletes        int

	// BadFiles counts files set aside on disk (*.bad) during crash
	// recovery: unreadable chunk files and damaged delete-log bytes.
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
		Chunks:            i.Chunks,
		MemtablePoints:    i.MemtablePoints,
		Deletes:           i.Deletes,
		BadFiles:          i.BadFiles,
		QuarantinedChunks: i.QuarantinedChunks,
		ReadOnly:          i.ReadOnly,
		ReadOnlyReason:    i.ReadOnlyReason,
	}
}
