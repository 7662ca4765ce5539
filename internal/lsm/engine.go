// Package lsm implements the write path of the storage engine: a WAL-backed
// memtable that flushes read-only chunks into chunk files, a global version
// counter ordering chunks and deletes (§2.2.1), and append-only range
// deletes recorded in a mods sidecar (Definition 2.5).
//
// Chunks are immutable once flushed, and out-of-order writes produce chunks
// with overlapping time intervals, exactly the state the M4-LSM operator is
// designed for (the paper's Table 4 runs without compaction; Compact is an
// explicit maintenance call). Queries obtain an immutable Snapshot of chunk
// metadata plus deletes; the unflushed memtable is exposed to the snapshot
// as an in-memory chunk with a version higher than any flushed chunk,
// borrowed: the memtable is kept sorted as it is written.
//
// One lock, Engine.mu, guards everything the engine owns: the memtables,
// the chunk registry, the chunk-file list, the quarantine set, the mods
// sidecar, the version and file-sequence counters and the pyramid-manifest
// save schedule. The WAL (internal/wal),
// the pyramid and the ingest queue keep leaf locks of their own (see the
// Engine comment for the lock order).
//
// One file per concern: engine.go (options, lifecycle, Info, metrics),
// ingest.go (the one write path and deletes), flush.go (flush and the one
// chunk-file writer), read.go (snapshots through the one series-snapshot
// builder, quarantine), recovery.go (chunk-file loading, WAL replay and its
// payload codec), compact.go, govern.go, pyramid.go (glue for
// internal/pyramid), backup.go and scrub.go.
package lsm

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"m4lsm/internal/obs"
	"m4lsm/internal/pyramid"
	"m4lsm/internal/storage"
	"m4lsm/internal/tsfile"
	"m4lsm/internal/wal"
)

// Options configures an Engine.
type Options struct {
	// Dir is the database directory; it is created if missing.
	Dir string
	// FlushThreshold is the number of distinct buffered points per series
	// (an overwrite of a buffered timestamp adds none) that triggers an
	// automatic flush, and the maximum chunk size; it is the
	// analogue of IoTDB's avg_series_point_number_threshold (Table 4
	// sets it to 1000). Default 1000.
	FlushThreshold int
	// SyncWAL fsyncs the WAL on every write batch. Slower, durable.
	SyncWAL bool
	// DisableWAL skips write-ahead logging (used by bulk loaders that
	// flush explicitly and can regenerate data).
	DisableWAL bool
	// StepHook, when set, is called at every write-path step (WAL append,
	// mods append, each flush stage). A non-nil return aborts the step
	// with that error, leaving partial on-disk state behind — the
	// faultfs.StepInjector uses this to simulate a crash at any point.
	StepHook func(site string) error
	// WrapSource, when set, wraps the chunk source of every chunk file,
	// injecting chunk-level read faults at query time only — file opens
	// and footer parses stay clean.
	WrapSource func(src storage.ChunkSource) storage.ChunkSource
	// SpaceProbeInterval rate-limits the disk-space probe that recovers
	// the engine from read-only degraded mode after ENOSPC. 0 means the
	// default of one probe per second; negative probes on every write
	// attempt (tests).
	SpaceProbeInterval time.Duration
	// Metrics, when set, receives the engine's runtime metrics: write/
	// flush/compaction counters and latency histograms, WAL size, memtable
	// and chunk gauges, and quarantine state.
	// The same registry is shared with the query operators and the HTTP
	// layer; nil (the default) disables all metric recording at zero cost.
	Metrics *obs.Registry
	// DisablePyramid turns off the M4 rollup pyramid: no cells are built
	// or persisted and snapshots carry no PyramidSource, so every query
	// takes the span×G path. The default (false) maintains the pyramid at
	// flush/compact time. See pyramid.go.
	DisablePyramid bool
	// IngestQueuePoints caps the ingest queue in points (see ingest.go):
	// an enqueue that would overflow it blocks up to IngestEnqueueWait and
	// then fails with the retryable ErrIngestBackpressure. 0 means 65536.
	IngestQueuePoints int
	// IngestEnqueueWait bounds how long a write blocks on a full ingest
	// queue before backpressure surfaces. 0 means 2s; negative fails
	// immediately.
	IngestEnqueueWait time.Duration
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.FlushThreshold <= 0 {
		out.FlushThreshold = 1000
	}
	return out
}

// Engine is the LSM storage engine. All methods are safe for concurrent
// use.
//
// Lock order: mu, then the leaf locks of the WAL, the pyramid and the ingest
// queue, which never call back into the engine. Goroutines that do not hold
// mu reach those three too: metrics read WAL stats, query workers plan on
// pyramid views, writers enqueue while a drainer holds mu across an fsync.
// scrubMu is taken only outside mu. No code loads chunk data through a
// snapshot carrying OnQuarantine while holding mu: the callback takes mu.
type Engine struct {
	opts Options
	// lock holds the directory's lock (see lockDir) until Close or Kill.
	lock *os.File

	// mu guards every field down to scrubMu: writers, flushes, compaction,
	// quarantine and backup hold it exclusively, and end by publishing
	// counts (unlock); snapshots share it.
	mu sync.RWMutex
	// mem is the memtable: per series one pair of columns, sorted,
	// deduplicated and copy-on-write (see memAppend), which a snapshot
	// borrows as a chunk and a flush writes as it is.
	mem map[string]memtable
	// memPts is the buffered point count across mem, distinct points.
	memPts int
	// chunks is the registry: per series, the live flushed chunks in
	// byStart order, copy-on-write (see publish), beside reach, the running
	// maximum of their Last.T that the window search bisects. The last of
	// a series' reach is its watermark: a flush's points at or before it
	// are late (see flushLocked).
	chunks map[string][]storage.ChunkRef
	reach  map[string][]int64
	// nChunks counts the chunks registered, quarantined ones included.
	nChunks int

	// nextVer is the global version counter ordering chunks and deletes
	// (§2.2.1): always greater than every version handed out so far, which
	// is what memtable pseudo-chunks rely on.
	nextVer uint64

	// fileSeq numbers chunk files.
	fileSeq int64

	files   []*tsfile.Reader
	retired []*tsfile.Reader // unlinked by compaction, kept open for live snapshots
	// badFiles counts files set aside (*.bad): chunk files whose footer
	// did not validate — crash leftovers recovered via the WAL — and
	// delete-sidecar bytes past its last whole record.
	badFiles int
	// warnings are Open's recovery findings; fixed once Open returns.
	warnings []string

	// mods is the delete sidecar; Compact swaps in a fresh one.
	mods *tsfile.ModLog

	// Chunk-level read quarantine, per series: chunks whose data failed a
	// CRC or decode check in a query or a scrub, with the error. They leave
	// the registry (their reads can never succeed — the file bytes are
	// wrong); snapshots they overlap warn; Info and /healthz count them.
	quarantined  map[string][]condemned
	nQuarantined int

	// The pyramid-manifest save schedule (see pyrSave): pyrUnsaved is the
	// points flushed since the last save, pyrLastSize the distinct points
	// the last manifest written or loaded holds.
	pyrUnsaved  int64
	pyrLastSize int64

	scrubMu  sync.Mutex  // serializes whole scrub passes and the resume cursor
	scrubCur scrubCursor // the first chunk this cycle has not verified

	// wal is the write-ahead log; nil (a disabled log whose
	// methods are no-ops) under DisableWAL.
	wal *wal.Log

	// ing is the bounded ingest queue (see ingest.go): writers enqueue
	// without mu, and the one caller elected drainer takes mu to apply it.
	ing *ingester

	// pyr is the M4 rollup pyramid, nil (whose methods are no-ops) when
	// Options.DisablePyramid is set. See pyramid.go.
	pyr *pyramid.Pyramid

	closed atomic.Bool

	// Read-only degraded mode (disk full): readOnly holds the reason, nil
	// while writable. It is atomic because classifyWrite runs both with
	// and without mu held. lastProbe rate-limits recovery probes, roTrips
	// counts entries into the mode.
	readOnly  atomic.Pointer[string]
	roTrips   atomic.Int64
	lastProbe atomic.Int64

	// Lifetime counters of manifest saves, scrubs and backups (see
	// pyramid.go, scrub.go, backup.go), read by metrics without mu.
	pyrSaves         atomic.Int64
	scrubRuns        atomic.Int64
	scrubChunks      atomic.Int64
	scrubQuarantines atomic.Int64
	scrubErrors      atomic.Int64
	backupRuns       atomic.Int64
	backupErrors     atomic.Int64
	backupBytes      atomic.Int64
	lastBackupUnix   atomic.Int64

	// counts is what Info and the state gauges report of the state mu
	// guards, published at the end of every write section (unlock), so a
	// reader never waits for a writer.
	counts atomic.Pointer[counts]

	// met holds pre-resolved write-path instruments; every field is
	// nil-safe, so instrumented code records unconditionally and a nil
	// Options.Metrics costs one pointer check per site.
	met engineMetrics
}

// counts is one immutable publication of the engine's counts.
type counts struct {
	memtablePoints, chunks, files        int
	badFiles, quarantinedChunks, deletes int
	nextVersion                          storage.Version
}

// unlock publishes the counts and releases mu. Every write section ends
// with it, so the published counts are the state's whenever mu is free.
func (e *Engine) unlock() {
	e.counts.Store(&counts{memtablePoints: e.memPts, chunks: e.nChunks, files: len(e.files),
		badFiles: e.badFiles, quarantinedChunks: e.nQuarantined,
		deletes: len(e.mods.All()), nextVersion: storage.Version(e.nextVer)})
	e.mu.Unlock()
}

// engineMetrics are the engine's registry instruments (all nil when
// Options.Metrics is nil).
type engineMetrics struct {
	pointsWritten *obs.Counter
	deletes       *obs.Counter
	walRecords    *obs.Counter
	flushes       *obs.Counter
	flushSeconds  *obs.Histogram
	flushedPoints *obs.Counter
	compactions   *obs.Counter
	compactSecs   *obs.Histogram
	quarantines   *obs.Counter
	// Pyramid upkeep: one rebuild observation per flush or compaction
	// that had stale series, one save observation per manifest written.
	pyrRebuildSecs *obs.Histogram
	pyrSaveSecs    *obs.Histogram
}

// allocVersion hands out the next version number. Caller holds e.mu.
func (e *Engine) allocVersion() storage.Version {
	e.nextVer++
	return storage.Version(e.nextVer - 1)
}

// bumpVersion raises the counter so future allocations exceed v. Only
// called from single-threaded recovery.
func (e *Engine) bumpVersion(v storage.Version) {
	e.nextVer = max(e.nextVer, uint64(v)+1)
}

// condemned is one quarantined chunk and the read error that condemned it.
type condemned struct {
	meta storage.ChunkMeta
	err  error
}

// ErrLocked is Open's error for a directory another engine has open, in
// this process or another; the error names the directory.
var ErrLocked = errors.New("database directory is in use by another engine")

// Open opens (or creates) the database in opts.Dir, recovering state from
// chunk files, the mods sidecar and the WAL. It first takes the
// directory's lock, and fails with ErrLocked, touching no file, when
// another engine holds it.
func Open(opts Options) (_ *Engine, err error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, errors.New("lsm: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("lsm: %w", err)
	}
	// A directory an older build's WAL is in is refused before the lock
	// file is made, so the refusal touches no file either.
	ents, err := os.ReadDir(opts.Dir)
	for _, ent := range ents {
		err = cmp.Or(err, wal.CheckFile(opts.Dir, ent.Name()))
	}
	if err != nil {
		return nil, fmt.Errorf("lsm: %w", err)
	}
	lock, err := lockDir(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("lsm: %w", err)
	}
	defer func() {
		if err != nil {
			lock.Close()
		}
	}()
	e := &Engine{
		opts:        opts,
		lock:        lock,
		mem:         make(map[string]memtable),
		chunks:      make(map[string][]storage.ChunkRef),
		reach:       make(map[string][]int64),
		quarantined: make(map[string][]condemned),
		ing:         newIngester(),
		nextVer:     1,
	}
	if !opts.DisablePyramid {
		e.pyr = pyramid.New()
	}
	if err := e.loadFiles(); err != nil {
		return nil, err
	}
	mods, err := tsfile.OpenModLog(filepath.Join(opts.Dir, "deletes.mods"))
	if err != nil {
		return nil, fmt.Errorf("lsm: %w", err)
	}
	e.mods = mods
	if n, aside := mods.Torn(); n > 0 {
		e.badFiles++
		e.warnings = append(e.warnings, fmt.Sprintf("deletes.mods: %d bytes past the last whole record set aside as %s", n, filepath.Base(aside)))
	}
	// logged lets WAL replay re-append only the deletes mods lacks.
	logged := make(map[storage.Delete]bool, len(mods.All()))
	for _, d := range mods.All() {
		e.bumpVersion(d.Version)
		logged[d] = true
	}
	// The pyramid manifest loads after chunks and mods (its watermark
	// validation walks both) and before WAL replay (which marks its own
	// replayed ranges stale).
	e.pyrLoad()
	if !opts.DisableWAL {
		replay := func(rec []byte) error { return e.replayRecord(rec, logged) }
		e.wal, err = wal.Open(wal.Options{Dir: opts.Dir, Sync: opts.SyncWAL, Step: opts.StepHook}, replay, e.replayCheckpoint)
		if err != nil {
			e.closeFiles()
			mods.Close()
			return nil, fmt.Errorf("lsm: %w", err)
		}
	}
	e.mu.Lock() // publishes the recovered counts
	e.unlock()
	e.registerMetrics(opts.Metrics)
	return e, nil
}

// registerMetrics resolves the engine's write-path instruments and
// registers the state gauges. Every accessor is nil-safe, so this is a
// no-op wiring when reg is nil.
func (e *Engine) registerMetrics(reg *obs.Registry) {
	e.met = engineMetrics{
		pointsWritten: reg.Counter("lsm_points_written_total"),
		deletes:       reg.Counter("lsm_deletes_total"),
		walRecords:    reg.Counter("lsm_wal_appends_total"),
		flushes:       reg.Counter("lsm_flushes_total"),
		flushSeconds:  reg.Histogram("lsm_flush_seconds"),
		flushedPoints: reg.Counter("lsm_flushed_points_total"),
		compactions:   reg.Counter("lsm_compactions_total"),
		compactSecs:   reg.Histogram("lsm_compact_seconds"),
		quarantines:   reg.Counter("lsm_quarantines_total"),

		pyrRebuildSecs: reg.Histogram("lsm_pyramid_rebuild_seconds"),
		pyrSaveSecs:    reg.Histogram("lsm_pyramid_save_seconds"),
	}
	if reg == nil {
		return
	}
	count := func(f func(*counts) int) func() float64 {
		return func() float64 { return float64(f(e.counts.Load())) }
	}
	reg.GaugeFunc("lsm_memtable_points", count(func(c *counts) int { return c.memtablePoints }))
	reg.GaugeFunc("lsm_chunks", count(func(c *counts) int { return c.chunks }))
	reg.GaugeFunc("lsm_files", count(func(c *counts) int { return c.files }))
	reg.GaugeFunc("lsm_bad_files", count(func(c *counts) int { return c.badFiles }))
	reg.GaugeFunc("lsm_quarantined_chunks", count(func(c *counts) int { return c.quarantinedChunks }))
	reg.GaugeFunc("lsm_delete_tombstones", count(func(c *counts) int { return c.deletes }))
	reg.GaugeFunc("lsm_read_only", func() float64 {
		if e.readOnly.Load() != nil {
			return 1
		}
		return 0
	})
	reg.CounterFunc("lsm_read_only_trips_total", func() float64 { return float64(e.roTrips.Load()) })
	walStat := func(f func(wal.Stats) float64) func() float64 {
		return func() float64 { return f(e.wal.Stats()) }
	}
	reg.GaugeFunc("lsm_wal_bytes", walStat(func(s wal.Stats) float64 { return float64(s.Bytes) }))
	reg.CounterFunc("lsm_wal_retired_bytes_total", walStat(func(s wal.Stats) float64 { return float64(s.RetiredBytes) }))
	reg.CounterFunc("lsm_wal_torn_truncations_total", walStat(func(s wal.Stats) float64 { return float64(s.TornTruncations) }))
	reg.CounterFunc("lsm_wal_group_commits_total", walStat(func(s wal.Stats) float64 { return float64(s.Groups) }))
	reg.CounterFunc("lsm_wal_group_records_total", walStat(func(s wal.Stats) float64 { return float64(s.Records) }))
	reg.GaugeFunc("lsm_ingest_queue_points", func() float64 { return float64(e.ing.queuedPoints()) })
	reg.CounterFunc("lsm_ingest_batches_total", func() float64 { return float64(e.ing.batches.Load()) })
	reg.CounterFunc("lsm_ingest_entries_total", func() float64 { return float64(e.ing.entries.Load()) })
	reg.CounterFunc("lsm_ingest_points_total", func() float64 { return float64(e.ing.pointsIn.Load()) })
	reg.CounterFunc("lsm_ingest_backpressure_total", func() float64 { return float64(e.ing.backpressure.Load()) })
	reg.CounterFunc("scrub_runs_total", func() float64 { return float64(e.scrubRuns.Load()) })
	reg.CounterFunc("scrub_chunks_checked_total", func() float64 { return float64(e.scrubChunks.Load()) })
	reg.CounterFunc("scrub_quarantines_total", func() float64 { return float64(e.scrubQuarantines.Load()) })
	reg.CounterFunc("scrub_errors_total", func() float64 { return float64(e.scrubErrors.Load()) })
	reg.CounterFunc("backup_runs_total", func() float64 { return float64(e.backupRuns.Load()) })
	reg.CounterFunc("backup_errors_total", func() float64 { return float64(e.backupErrors.Load()) })
	reg.CounterFunc("backup_bytes_total", func() float64 { return float64(e.backupBytes.Load()) })
	if e.pyr != nil {
		ps := func(f func(pyramid.Stats) float64) func() float64 {
			return func() float64 { return f(e.pyr.Stats()) }
		}
		reg.GaugeFunc("lsm_pyramid_series", ps(func(s pyramid.Stats) float64 { return float64(s.Series) }))
		reg.GaugeFunc("lsm_pyramid_cells", ps(func(s pyramid.Stats) float64 { return float64(s.Cells) }))
		reg.GaugeFunc("lsm_pyramid_stale_ranges", ps(func(s pyramid.Stats) float64 { return float64(s.StaleRanges) }))
		reg.CounterFunc("lsm_pyramid_rebuilds_total", ps(func(s pyramid.Stats) float64 { return float64(s.Rebuilds) }))
		reg.CounterFunc("lsm_pyramid_rebuild_errors_total", ps(func(s pyramid.Stats) float64 { return float64(s.RebuildErrors) }))
		reg.CounterFunc("lsm_pyramid_invalidations_total", ps(func(s pyramid.Stats) float64 { return float64(s.Invalidations) }))
		reg.CounterFunc("lsm_pyramid_saves_total", func() float64 { return float64(e.pyrSaves.Load()) })
	}
}

// Metrics returns the registry the engine was opened with (nil when
// observability is off). The query layers share it.
func (e *Engine) Metrics() *obs.Registry { return e.opts.Metrics }

// step invokes the write-path fault hook, if any.
func (e *Engine) step(site string) error {
	if e.opts.StepHook == nil {
		return nil
	}
	return e.opts.StepHook(site)
}

// Info summarizes engine state for tooling.
type Info struct {
	Files          int
	Chunks         int
	MemtablePoints int
	NextVersion    storage.Version
	Deletes        int

	// BadFiles counts files set aside on disk (*.bad): chunk files whose
	// footer never validated — crash leftovers — and delete-sidecar bytes
	// past its last whole record.
	BadFiles int
	// QuarantinedChunks counts chunks excluded from snapshots after a
	// CRC or decode failure during a query.
	QuarantinedChunks int

	// ReadOnly reports the disk-full degraded mode: writes are rejected
	// with ErrReadOnly (retryable), queries keep serving, and the engine
	// auto-recovers when a space probe succeeds. ReadOnlyReason carries
	// the triggering error.
	ReadOnly       bool
	ReadOnlyReason string

	// Rollup-pyramid state: series with cells, total cells across all
	// levels, and stale ranges awaiting rebuild. All zero when the
	// pyramid is disabled.
	PyramidSeries      int
	PyramidCells       int
	PyramidStaleRanges int

	// WAL state (zero when the WAL is disabled).
	WALBytes           int64
	WALRetiredBytes    int64
	WALTornTruncations int
	// RecoveryWarnings carries what Open found and recovered around —
	// a torn WAL tail truncated, delete-sidecar bytes set aside —
	// verbatim for /healthz.
	RecoveryWarnings []string

	// Integrity-scrubber and backup lifetime counters (see scrub.go and
	// backup.go).
	ScrubRuns          int64
	ScrubChunksScanned int64
	ScrubQuarantines   int64
	ScrubErrors        int64
	BackupRuns         int64
	LastBackupUnix     int64
}

// Info returns a snapshot of engine statistics. It never waits for e.mu:
// the counts mu guards come from one publication (see unlock).
func (e *Engine) Info() Info {
	ro, roReason := e.ReadOnly()
	ps := e.pyr.Stats()
	ws := e.wal.Stats()
	c := e.counts.Load()
	return Info{
		Files:              c.files,
		Chunks:             c.chunks,
		MemtablePoints:     c.memtablePoints,
		NextVersion:        c.nextVersion,
		Deletes:            c.deletes,
		BadFiles:           c.badFiles,
		QuarantinedChunks:  c.quarantinedChunks,
		ReadOnly:           ro,
		ReadOnlyReason:     roReason,
		PyramidSeries:      ps.Series,
		PyramidCells:       ps.Cells,
		PyramidStaleRanges: ps.StaleRanges,
		ScrubRuns:          e.scrubRuns.Load(),
		ScrubChunksScanned: e.scrubChunks.Load(),
		ScrubQuarantines:   e.scrubQuarantines.Load(),
		ScrubErrors:        e.scrubErrors.Load(),
		BackupRuns:         e.backupRuns.Load(),
		LastBackupUnix:     e.lastBackupUnix.Load(),

		WALBytes:           ws.Bytes,
		WALRetiredBytes:    ws.RetiredBytes,
		WALTornTruncations: ws.TornTruncations,
		RecoveryWarnings:   slices.Concat(e.warnings, ws.Warnings),
	}
}

// Close applies every batch still queued, flushes the memtables and
// releases all file handles: every batch accepted before Close is flushed
// like a direct Write.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.unlock()
	if e.closed.Load() {
		return nil
	}
	e.ing.shut(false)
	for e.drain() {
	}
	n, err := e.flushLocked()
	err = e.afterFlush(n, true, err)
	e.closed.Store(true)
	e.closeFiles()
	if cerr := e.mods.Close(); err == nil {
		err = cerr
	}
	if cerr := e.wal.Close(); err == nil {
		err = cerr
	}
	e.lock.Close()
	return err
}

// Kill abandons the engine the way a process kill would: queued batches
// fail with errEngineClosed, file handles are closed, nothing is flushed,
// the WAL is left as-is. Crash-recovery tests pair it with a fresh Open
// over the same directory.
func (e *Engine) Kill() {
	e.mu.Lock()
	defer e.unlock()
	if e.closed.Load() {
		return
	}
	e.ing.shut(true)
	e.closed.Store(true)
	e.closeFiles()
	e.mods.Close()
	e.wal.Close()
	e.lock.Close()
}
