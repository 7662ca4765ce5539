// Package lsm implements the write path of the storage engine: a WAL-backed
// memtable that flushes read-only chunks into chunk files, a global version
// counter ordering chunks and deletes (§2.2.1), and append-only range
// deletes recorded in a mods sidecar (Definition 2.5).
//
// Mirroring the paper's experimental configuration (Table 4), there is no
// compaction: chunks are immutable once flushed and out-of-order writes
// produce chunks with overlapping time intervals, exactly the state the
// M4-LSM operator is designed for. Queries obtain an immutable Snapshot of
// chunk metadata plus deletes; the unflushed memtable is exposed to the
// snapshot as an in-memory chunk with a version higher than any flushed
// chunk.
//
// The engine is sharded: series are routed to NumShards independent lock
// stripes by hash(seriesID) (see shard.go), so writers to different series
// never contend on one global mutex. The WAL is a sequence of segment files
// shared by all shards (internal/wal); records carry a shard tag, and
// recovery routes each record back to the owning shard by re-hashing the
// series id. Every insert reaches a memtable through one function, applyRun
// (ingest.go).
// Flush and Compact run per-shard, concurrently up to the GOMAXPROCS budget.
package lsm

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"m4lsm/internal/cache"
	"m4lsm/internal/encoding"
	"m4lsm/internal/obs"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
	"m4lsm/internal/tsfile"
	"m4lsm/internal/wal"
)

// Options configures an Engine.
type Options struct {
	// Dir is the database directory; it is created if missing.
	Dir string
	// NumShards splits the engine into independent lock stripes: series
	// are routed by hash(seriesID) % NumShards and each shard owns its
	// memtables, chunk registry, flush accounting and lock. The WAL stays
	// one file with shard-tagged records, and a directory written under
	// one shard count reopens correctly under any other (routing is a
	// pure function of the series id). 0 or 1 (the default) keeps the
	// engine single-striped.
	NumShards int
	// FlushThreshold is the number of buffered points per series that
	// triggers an automatic flush, and the maximum chunk size; it is the
	// analogue of IoTDB's avg_series_point_number_threshold (Table 4
	// sets it to 1000). Default 1000.
	FlushThreshold int
	// Codec selects the chunk encoding. Default CodecGorilla.
	Codec encoding.Codec
	// SyncWAL fsyncs the WAL on every write batch. Slower, durable.
	SyncWAL bool
	// DisableWAL skips write-ahead logging (used by bulk loaders that
	// flush explicitly and can regenerate data).
	DisableWAL bool
	// ChunkCacheBytes bounds an LRU over decoded chunk columns shared by
	// all queries. 0 (the default) disables caching — the paper's
	// experiments run cold.
	ChunkCacheBytes int64
	// StepHook, when set, is called at every write-path step (WAL append,
	// mods append, each flush stage). A non-nil return aborts the step
	// with that error, leaving partial on-disk state behind — the
	// faultfs.StepInjector uses this to simulate a crash at any point.
	// Installing a StepHook also forces per-shard maintenance to run
	// sequentially, so injection schedules stay deterministic.
	StepHook func(site string) error
	// WrapSource, when set, wraps the chunk source of every chunk file,
	// injecting chunk-level read faults at query time only — file opens
	// and footer parses stay clean. Applied beneath the chunk cache.
	WrapSource func(src storage.ChunkSource) storage.ChunkSource
	// ReadRetries bounds how many times a transient chunk-read fault is
	// retried (with deterministic jittered backoff) before it surfaces to
	// the query. 0 means the default of 2 retries (3 attempts total).
	// Detected corruption is never retried. RetryBaseDelay is the first
	// backoff (default 1ms), doubling up to 50ms.
	ReadRetries    int
	RetryBaseDelay time.Duration
	// SpaceProbeInterval rate-limits the disk-space probe that recovers
	// the engine from read-only degraded mode after ENOSPC. 0 means the
	// default of one probe per second; negative probes on every write
	// attempt (tests).
	SpaceProbeInterval time.Duration
	// Metrics, when set, receives the engine's runtime metrics: write/
	// flush/compaction counters and latency histograms, WAL size, memtable
	// and chunk gauges, quarantine state, and chunk-cache effectiveness.
	// The same registry is shared with the query operators and the HTTP
	// layer; nil (the default) disables all metric recording at zero cost.
	Metrics *obs.Registry
	// DisablePyramid turns off the M4 rollup pyramid: no cells are built
	// or persisted and snapshots carry no PyramidSource, so every query
	// takes the span×G path. The default (false) maintains the pyramid at
	// flush/compact time. See pyramid.go.
	DisablePyramid bool
	// WALSegmentBytes is the size at which the active WAL segment is
	// sealed and a fresh one started (see internal/wal); sealed segments
	// retire individually as their shards flush. 0 means 1 MiB.
	WALSegmentBytes int64
	// ScrubInterval, when positive, runs the background integrity
	// scrubber that often: every chunk's CRCs, the pyramid manifest and
	// the sealed WAL segments are re-verified from disk, and corrupt
	// chunks are quarantined before any query can trip over them. 0
	// disables the background pass (Scrub can still be called directly).
	ScrubInterval time.Duration
	// WALGroupSize bounds how many records one WAL group commit carries
	// (leader/follower batching; see internal/wal). Concurrent writers
	// share one fsync per group when SyncWAL is on. 0 means 128.
	WALGroupSize int
	// IngestQueuePoints caps each shard's ingest queue in points (see
	// ingest.go): an enqueue that would overflow it blocks up to
	// IngestEnqueueWait and then fails with the retryable
	// ErrIngestBackpressure. 0 means 65536.
	IngestQueuePoints int
	// IngestEnqueueWait bounds how long a write blocks on a full shard
	// queue before backpressure surfaces. 0 means 2s; negative fails
	// immediately.
	IngestEnqueueWait time.Duration
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.NumShards <= 0 {
		out.NumShards = 1
	}
	if out.FlushThreshold <= 0 {
		out.FlushThreshold = 1000
	}
	if !out.Codec.Valid() {
		out.Codec = encoding.CodecGorilla
	}
	return out
}

// Engine is the LSM storage engine. All methods are safe for concurrent
// use.
//
// Lock order: shard.mu → (wal, internal). A series operation takes its
// shard's mutex first and may then call into the WAL (which owns its own
// lock) or take fileMu (file-list update), never one inside the other;
// quarMu nests inside anything. More than one shard lock is held only by
// Close, Kill, Compact and Backup, which acquire all shards in index order.
type Engine struct {
	opts Options

	shards []*shard

	// nextVer is the global version counter ordering chunks and deletes
	// across all shards (§2.2.1). Load() is always ≥ every version handed
	// out so far, which is what memtable pseudo-chunks rely on.
	nextVer atomic.Uint64

	// fileSeq numbers chunk files; allocation is atomic so concurrent
	// per-shard flushes pick distinct names.
	fileSeq atomic.Int64

	// fileMu guards the open-file bookkeeping shared by all shards.
	fileMu     sync.Mutex
	files      []*tsfile.Reader
	retired    []*tsfile.Reader // unlinked by compaction, kept open for live snapshots
	unseqFiles int
	// badFiles counts chunk files set aside (renamed *.bad) because their
	// footer did not validate — crash leftovers recovered via the WAL.
	badFiles int

	// wal is the segmented, group-committed log shared by all shards; nil
	// (a disabled log whose methods are no-ops) under DisableWAL.
	wal *wal.Log

	// ing owns the bounded ingest queues and their append workers (see
	// ingest.go); workers take shard locks, so Close/Kill stop the
	// ingester before lockAll.
	ing *ingester

	// mods is the shared delete sidecar; the ModLog is internally locked,
	// and the pointer itself is atomic because Compact swaps in a fresh
	// sidecar while Info may be reading concurrently.
	mods atomic.Pointer[tsfile.ModLog]

	cache  *cache.LRU // nil when caching is disabled
	closed atomic.Bool

	// Chunk-level read quarantine: chunks whose data failed a CRC or
	// decode check during a query. Quarantined chunks are excluded from
	// later snapshots (their reads can never succeed — the file bytes are
	// wrong) and surface in Info and /healthz. Guarded by quarMu, not a
	// shard lock: quarantine reports arrive from query worker goroutines
	// while other queries hold shard read locks.
	quarMu      sync.Mutex
	quarantined map[chunkID]error

	// Read-only degraded mode (disk full): readOnly is the hot-path flag,
	// roMu guards the reason string, lastProbe rate-limits recovery
	// probes, roTrips counts entries into the mode. Transient-read retry
	// accounting (readRetries/retryExhausted) lives here too: the retry
	// wrapper outlives individual snapshots.
	readOnly       atomic.Bool
	roMu           sync.Mutex
	roReason       string
	roTrips        atomic.Int64
	lastProbe      atomic.Int64
	readRetries    atomic.Int64
	retryExhausted atomic.Int64

	// pyr is the M4 rollup pyramid, nil when Options.DisablePyramid is
	// set. Its internal mutex nests inside shard locks and is never held
	// across I/O; see pyramid.go.
	pyr *pyramid

	// Background scrubber lifecycle (see scrub.go): the ticker goroutine
	// is stopped before Close/Kill take the shard locks, because a scrub
	// pass takes them itself.
	scrubStop chan struct{}
	scrubWG   sync.WaitGroup
	scrubOnce sync.Once
	scrubMu   sync.Mutex // serializes whole scrub passes and the resume cursor
	scrubCur  int        // resume cursor: chunks already verified this cycle

	// Scrub and backup counters (see scrub.go / backup.go).
	scrubRuns        atomic.Int64
	scrubChunks      atomic.Int64
	scrubQuarantines atomic.Int64
	scrubErrors      atomic.Int64
	backupRuns       atomic.Int64
	backupErrors     atomic.Int64
	backupBytes      atomic.Int64
	lastBackupUnix   atomic.Int64

	// met holds pre-resolved write-path instruments; every field is
	// nil-safe, so instrumented code records unconditionally and a nil
	// Options.Metrics costs one pointer check per site.
	met engineMetrics
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
}

// chunkID identifies one immutable chunk across snapshots.
type chunkID struct {
	seriesID string
	version  storage.Version
}

type chunkEntry struct {
	meta storage.ChunkMeta
	src  storage.ChunkSource
}

// allocVersion hands out the next version number.
func (e *Engine) allocVersion() storage.Version {
	return storage.Version(e.nextVer.Add(1) - 1)
}

// bumpVersion raises the counter so future allocations exceed v. Only
// called from single-threaded recovery.
func (e *Engine) bumpVersion(v storage.Version) {
	if uint64(v) >= e.nextVer.Load() {
		e.nextVer.Store(uint64(v) + 1)
	}
}

// modsLog returns the current delete sidecar.
func (e *Engine) modsLog() *tsfile.ModLog { return e.mods.Load() }

// Open opens (or creates) the database in opts.Dir, recovering state from
// chunk files, the mods sidecar and the WAL.
func Open(opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, errors.New("lsm: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("lsm: %w", err)
	}
	e := &Engine{
		opts:        opts,
		quarantined: make(map[chunkID]error),
	}
	e.nextVer.Store(1)
	e.ing = newIngester(opts.NumShards)
	e.shards = make([]*shard, opts.NumShards)
	for i := range e.shards {
		e.shards[i] = newShard()
		e.shards[i].ix = i
	}
	if opts.ChunkCacheBytes > 0 {
		e.cache = cache.NewLRU(opts.ChunkCacheBytes)
	}
	if !opts.DisablePyramid {
		e.pyr = newPyramid()
	}
	if err := e.loadFiles(); err != nil {
		return nil, err
	}
	mods, err := tsfile.OpenModLog(filepath.Join(opts.Dir, "deletes.mods"))
	if err != nil {
		return nil, fmt.Errorf("lsm: %w", err)
	}
	e.mods.Store(mods)
	for _, d := range mods.All() {
		e.bumpVersion(d.Version)
	}
	// The pyramid manifest loads after chunks and mods (its watermark
	// validation walks both) and before WAL replay (which marks its own
	// replayed ranges stale).
	e.pyrLoad()
	if !opts.DisableWAL {
		e.wal, err = wal.Open(wal.Options{Dir: opts.Dir, Shards: len(e.shards),
			SegmentBytes: opts.WALSegmentBytes, GroupSize: opts.WALGroupSize,
			Sync: opts.SyncWAL, Step: opts.StepHook}, e.replayRecord, e.replayCheckpoint)
		if err != nil {
			e.closeFiles()
			mods.Close()
			return nil, fmt.Errorf("lsm: %w", err)
		}
	}
	e.registerMetrics(opts.Metrics)
	e.startScrubber()
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
	}
	if reg == nil {
		return
	}
	info := func(f func(Info) float64) func() float64 {
		return func() float64 { return f(e.Info()) }
	}
	reg.GaugeFunc("lsm_memtable_points", info(func(i Info) float64 { return float64(i.MemtablePoints) }))
	reg.GaugeFunc("lsm_chunks", info(func(i Info) float64 { return float64(i.Chunks) }))
	reg.GaugeFunc("lsm_files", info(func(i Info) float64 { return float64(i.Files) }))
	reg.GaugeFunc("lsm_unseq_files", info(func(i Info) float64 { return float64(i.UnseqFiles) }))
	reg.GaugeFunc("lsm_bad_files", info(func(i Info) float64 { return float64(i.BadFiles) }))
	reg.GaugeFunc("lsm_quarantined_chunks", info(func(i Info) float64 { return float64(i.QuarantinedChunks) }))
	reg.GaugeFunc("lsm_delete_tombstones", info(func(i Info) float64 { return float64(i.Deletes) }))
	reg.GaugeFunc("lsm_read_only", func() float64 {
		if e.readOnly.Load() {
			return 1
		}
		return 0
	})
	reg.CounterFunc("lsm_read_only_trips_total", func() float64 { return float64(e.roTrips.Load()) })
	reg.CounterFunc("lsm_read_retries_total", func() float64 { return float64(e.readRetries.Load()) })
	reg.CounterFunc("lsm_read_retry_exhausted_total", func() float64 { return float64(e.retryExhausted.Load()) })
	walStat := func(f func(wal.Stats) float64) func() float64 {
		return func() float64 { return f(e.wal.Stats()) }
	}
	reg.GaugeFunc("lsm_wal_bytes", walStat(func(s wal.Stats) float64 { return float64(s.Bytes) }))
	reg.GaugeFunc("lsm_wal_segments", walStat(func(s wal.Stats) float64 { return float64(s.Segments) }))
	reg.CounterFunc("lsm_wal_retired_total", walStat(func(s wal.Stats) float64 { return float64(s.RetiredSegments) }))
	reg.CounterFunc("lsm_wal_retired_bytes_total", walStat(func(s wal.Stats) float64 { return float64(s.RetiredBytes) }))
	reg.CounterFunc("lsm_wal_rotations_total", walStat(func(s wal.Stats) float64 { return float64(s.Rotations) }))
	reg.CounterFunc("lsm_wal_torn_truncations_total", walStat(func(s wal.Stats) float64 { return float64(s.TornTruncations) }))
	reg.GaugeFunc("lsm_wal_quarantined_segments", walStat(func(s wal.Stats) float64 { return float64(s.QuarantinedSegments) }))
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
		reg.GaugeFunc("lsm_pyramid_series", func() float64 { return float64(e.pyrInfo().series) })
		reg.GaugeFunc("lsm_pyramid_cells", func() float64 { return float64(e.pyrInfo().cells) })
		reg.GaugeFunc("lsm_pyramid_stale_ranges", func() float64 { return float64(e.pyrInfo().staleRanges) })
		reg.CounterFunc("lsm_pyramid_rebuilds_total", func() float64 { return float64(e.pyr.rebuilds.Load()) })
		reg.CounterFunc("lsm_pyramid_rebuild_errors_total", func() float64 { return float64(e.pyr.rebuildErrors.Load()) })
		reg.CounterFunc("lsm_pyramid_invalidations_total", func() float64 { return float64(e.pyr.invalidations.Load()) })
		reg.CounterFunc("lsm_pyramid_saves_total", func() float64 { return float64(e.pyr.saves.Load()) })
	}
	cs := func(f func(cache.Stats) float64) func() float64 {
		return func() float64 { return f(e.CacheStats()) }
	}
	reg.CounterFunc("chunk_cache_hits_total", cs(func(s cache.Stats) float64 { return float64(s.Hits) }))
	reg.CounterFunc("chunk_cache_misses_total", cs(func(s cache.Stats) float64 { return float64(s.Misses) }))
	reg.CounterFunc("chunk_cache_evictions_total", cs(func(s cache.Stats) float64 { return float64(s.Evictions) }))
	reg.GaugeFunc("chunk_cache_used_bytes", cs(func(s cache.Stats) float64 { return float64(s.UsedBytes) }))
	reg.GaugeFunc("chunk_cache_entries", cs(func(s cache.Stats) float64 { return float64(s.Entries) }))
}

// Metrics returns the registry the engine was opened with (nil when
// observability is off). The query layers share it.
func (e *Engine) Metrics() *obs.Registry { return e.opts.Metrics }

// NumShards reports the engine's shard count.
func (e *Engine) NumShards() int { return len(e.shards) }

// step invokes the write-path fault hook, if any.
func (e *Engine) step(site string) error {
	if e.opts.StepHook == nil {
		return nil
	}
	return e.opts.StepHook(site)
}

// loadFiles opens every readable chunk file in the directory, routing each
// chunk to its series' shard. Files without a valid footer (crash during
// flush) are renamed aside; their contents are still in the WAL. Runs
// single-threaded during Open, so no locks are taken.
func (e *Engine) loadFiles() error {
	entries, err := os.ReadDir(e.opts.Dir)
	if err != nil {
		return fmt.Errorf("lsm: %w", err)
	}
	var names []string
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		if strings.Contains(ent.Name(), ".tsf.bad") {
			e.badFiles++ // quarantined by an earlier recovery
			continue
		}
		if strings.HasSuffix(ent.Name(), ".tsf") {
			names = append(names, ent.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		path := filepath.Join(e.opts.Dir, name)
		r, err := tsfile.Open(path)
		if errors.Is(err, tsfile.ErrCorrupt) {
			// Incomplete flush; set aside and rely on the WAL.
			if _, err := tsfile.SetAside(path); err != nil {
				return fmt.Errorf("lsm: quarantine %s: %w", name, err)
			}
			e.badFiles++
			continue
		}
		if err != nil {
			e.closeFiles()
			return fmt.Errorf("lsm: %w", err)
		}
		e.files = append(e.files, r)
		if seq, ok := parseFileSeq(name); ok && int64(seq) >= e.fileSeq.Load() {
			e.fileSeq.Store(int64(seq) + 1)
		}
		unseq := strings.HasSuffix(name, ".unseq.tsf")
		if unseq {
			e.unseqFiles++
		}
		for _, m := range r.Metas() {
			sh, _ := e.shardFor(m.SeriesID)
			sh.chunks[m.SeriesID] = append(sh.chunks[m.SeriesID], chunkEntry{meta: m, src: e.sourceFor(r)})
			e.bumpVersion(m.Version)
			if !unseq {
				if cur, ok := sh.maxSeqTime[m.SeriesID]; !ok || m.Last.T > cur {
					sh.maxSeqTime[m.SeriesID] = m.Last.T
				}
			}
		}
	}
	return nil
}

func parseFileSeq(name string) (int, bool) {
	base := strings.TrimSuffix(name, ".tsf")
	base = strings.TrimSuffix(base, ".seq")
	base = strings.TrimSuffix(base, ".unseq")
	if base == "" {
		return 0, false
	}
	seq := 0
	for _, c := range base {
		if c < '0' || c > '9' {
			return 0, false
		}
		seq = seq*10 + int(c-'0')
	}
	return seq, true
}

// closeFiles releases every open chunk-file handle. Callers hold all shard
// locks (or run single-threaded during Open).
func (e *Engine) closeFiles() {
	e.fileMu.Lock()
	defer e.fileMu.Unlock()
	for _, f := range e.files {
		f.Close()
	}
	e.files = nil
	for _, f := range e.retired {
		f.Close()
	}
	e.retired = nil
}

// Write buffers points for seriesID. Points may arrive in any order and may
// overwrite earlier timestamps; the latest write for a timestamp wins. A
// flush is triggered automatically when the buffer reaches FlushThreshold.
// It is WriteBatch of one entry — the same queue, WAL record and error
// classes, including the retryable ErrIngestBackpressure when the series'
// shard queue stays saturated.
func (e *Engine) Write(seriesID string, pts ...series.Point) error {
	return e.WriteBatch(BatchEntry{SeriesID: seriesID, Points: pts})
}

// Delete records an append-only range tombstone covering the closed range
// [start, end] of seriesID (Definition 2.5). It applies to every chunk with
// a smaller version and to the current memtable contents.
func (e *Engine) Delete(seriesID string, start, end int64) error {
	if end < start {
		return fmt.Errorf("lsm: inverted delete range [%d,%d]", start, end)
	}
	if err := e.writable(); err != nil {
		return err
	}
	sh, shardIx := e.shardFor(seriesID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e.closed.Load() {
		return errEngineClosed
	}
	d := storage.Delete{SeriesID: seriesID, Version: e.allocVersion(), Start: start, End: end}
	// Mark the range stale before anything becomes visible; over-marking
	// on a failed append only costs rebuild work.
	e.pyrMarkStaleClosed(seriesID, start, end)
	// The WAL is written first and is authoritative: a crash between the two
	// appends leaves the delete in the WAL only, and recovery re-appends it
	// to the mods sidecar (see replayRecord). The reverse order would leave a
	// half-applied delete — recorded against flushed chunks but not against
	// WAL-replayed memtable points.
	var rec [1]wal.Record
	if e.wal != nil {
		if err := e.step("wal.append"); err != nil {
			return e.classifyWrite(err)
		}
		// Pinned: the record's segment must survive until the delete is
		// durable in the mods sidecar below — it claims no flush watermark
		// (deletes carry no memtable points to flush).
		rec[0] = wal.Record{Payload: encodeDeleteSharded(shardIx, d), Shard: shardIx, Pin: true}
		if err := e.wal.Commit(rec[:]); err != nil {
			return e.classifyWrite(err)
		}
		e.met.walRecords.Inc()
	}
	if err := e.step("mods.append"); err != nil {
		return err
	}
	if err := e.modsLog().Append(d); err != nil {
		return e.classifyWrite(err)
	}
	// On any failure above the pin is kept: conservative, the segment
	// just retires later.
	e.wal.Unpin(rec[0].Seq)
	e.met.deletes.Inc()
	sh.applyDeleteToMem(d)
	return nil
}

// Flush persists every shard's memtable as chunk files and clears the WAL.
// Shards flush concurrently (sequentially under a StepHook).
func (e *Engine) Flush() error {
	if err := e.writable(); err != nil {
		return err
	}
	var flushed atomic.Int64
	err := runShardPool(e.shardParallelism(), len(e.shards), func(i int) error {
		sh := e.shards[i]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		if e.closed.Load() {
			return errEngineClosed
		}
		n, err := e.flushShardLocked(sh)
		flushed.Add(int64(n))
		return err
	})
	return e.afterFlush(int(flushed.Load()), err)
}

// afterFlush is the one tail every flush site runs — the ingest workers
// (still under their shard's lock), Flush and Close: once points left a
// memtable, drop the WAL segments their checkpoints freed and persist the
// pyramid. Errors are classified, so ENOSPC anywhere in flush, retirement
// or the manifest save flips the engine read-only with the typed error
// instead of surfacing as an anonymous I/O failure; a failed flush loses
// nothing (memtable + WAL still hold the points).
func (e *Engine) afterFlush(flushed int, err error) error {
	if err == nil && flushed > 0 {
		if err = e.wal.Retire(); err == nil {
			err = e.pyrMaybeSave()
		}
	}
	return e.classifyWrite(err)
}

// flushShardLocked persists one shard's memtable, separating in-order data
// from out-of-order arrivals the way IoTDB's sequence/unsequence spaces do
// (reference [26] of the paper): per series, points later than everything
// already flushed go to the sequence file (whose chunks never overlap
// previously flushed ones), the rest to an unsequence file. Returns the
// number of points flushed. Caller holds sh.mu.
func (e *Engine) flushShardLocked(sh *shard) (int, error) {
	flushPts := int(sh.memPts.Load())
	if flushPts == 0 {
		return 0, nil
	}
	flushStart := time.Now()
	ids := make([]string, 0, len(sh.mem))
	for id, buf := range sh.mem {
		if len(buf) > 0 {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	seq := map[string]series.Series{}
	unseq := map[string]series.Series{}
	for _, id := range ids {
		data := series.SortDedup(sh.mem[id])
		split := 0
		if maxT, ok := sh.maxSeqTime[id]; ok {
			split = sort.Search(len(data), func(i int) bool { return data[i].T > maxT })
		}
		if split > 0 {
			unseq[id] = data[:split]
		}
		if split < len(data) {
			seq[id] = data[split:]
			sh.maxSeqTime[id] = data[len(data)-1].T
		}
	}
	if err := e.writeSpaceFile(sh, ids, unseq, "unseq"); err != nil {
		return 0, err
	}
	if err := e.writeSpaceFile(sh, ids, seq, "seq"); err != nil {
		return 0, err
	}
	sh.mem = make(map[string]series.Series)
	sh.memPts.Store(0)
	// The memtable is empty and the flushed chunks registered: sh.chunks
	// plus the mods sidecar are the full merged state, so rebuild this
	// shard's stale pyramid cells now. Only the fault hook can fail this.
	if err := e.pyrRebuildShard(sh); err != nil {
		return 0, err
	}
	// Checkpoint while still holding sh.mu: every WAL record of this shard
	// so far is now durable in chunk files, and no new write can race in
	// before the checkpoint lands.
	if err := e.wal.Checkpoint(sh.ix); err != nil {
		return 0, err
	}
	e.met.flushes.Inc()
	e.met.flushedPoints.Add(int64(flushPts))
	e.met.flushSeconds.Observe(time.Since(flushStart).Seconds())
	return flushPts, nil
}

// writeSpaceFile flushes one space's per-series data as a chunk file and
// registers its chunks with the shard. Chunks are split at FlushThreshold
// points so big batches still yield paper-sized chunks. Caller holds sh.mu.
func (e *Engine) writeSpaceFile(sh *shard, ids []string, bySeries map[string]series.Series, space string) error {
	if len(bySeries) == 0 {
		return nil
	}
	name := fmt.Sprintf("%06d.%s.tsf", e.fileSeq.Add(1)-1, space)
	path := filepath.Join(e.opts.Dir, name)
	if err := e.step("flush.create:" + name); err != nil {
		return err
	}
	w, err := tsfile.Create(path)
	if err != nil {
		return err
	}
	for _, id := range ids {
		data := bySeries[id]
		for len(data) > 0 {
			n := len(data)
			if n > e.opts.FlushThreshold {
				n = e.opts.FlushThreshold
			}
			// A step-hook "crash" mid-file must leave the partial bytes on
			// disk (Crash), unlike a write error, which cleans up (Abort):
			// recovery quarantines the footer-less leftover and replays
			// the WAL.
			if err := e.step("flush.chunk:" + name); err != nil {
				w.Crash()
				return err
			}
			if _, err := w.WriteChunk(id, e.allocVersion(), e.opts.Codec, data[:n]); err != nil {
				w.Abort()
				return err
			}
			data = data[n:]
		}
	}
	if err := e.step("flush.footer:" + name); err != nil {
		w.Crash()
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	if err := e.step("flush.reopen:" + name); err != nil {
		return err
	}
	r, err := tsfile.Open(path)
	if err != nil {
		return fmt.Errorf("lsm: reopen flushed file: %w", err)
	}
	e.fileMu.Lock()
	e.files = append(e.files, r)
	if space == "unseq" {
		e.unseqFiles++
	}
	e.fileMu.Unlock()
	for _, m := range r.Metas() {
		sh.chunks[m.SeriesID] = append(sh.chunks[m.SeriesID], chunkEntry{meta: m, src: e.sourceFor(r)})
	}
	return nil
}

// Snapshot returns an immutable view of seriesID for the half-open query
// range r: every chunk whose closed interval overlaps r plus every delete
// intersecting it. The unflushed memtable appears as one in-memory chunk
// with a version above all flushed chunks.
func (e *Engine) Snapshot(seriesID string, r series.TimeRange) (*storage.Snapshot, error) {
	sh, _ := e.shardFor(seriesID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if e.closed.Load() {
		return nil, errEngineClosed
	}
	stats := &storage.Stats{}
	snap := &storage.Snapshot{
		SeriesID: seriesID,
		Stats:    stats,
		Warnings: &storage.Warnings{},
	}
	snap.OnQuarantine = func(meta storage.ChunkMeta, err error) {
		// Only CRC/decode failures are permanent: the bytes on disk are
		// wrong and every retry would fail. Transient read errors (I/O
		// hiccups, injected faults) stay retryable on the next query.
		if !errors.Is(err, tsfile.ErrCorrupt) {
			return
		}
		e.quarantineChunk(meta, err)
	}
	// The memtable's chunk goes last; it is built first so the chunk list
	// is allocated at its exact size.
	var mem storage.ChunkRef
	hasMem := false
	if buf := sh.mem[seriesID]; len(buf) > 0 {
		data := series.SortDedup(buf.Clone())
		memSrc := storage.NewMemSource()
		meta, err := memSrc.AddChunk(seriesID, storage.Version(e.nextVer.Load()), data)
		if err != nil {
			return nil, fmt.Errorf("lsm: memtable snapshot: %w", err)
		}
		mem, hasMem = storage.NewChunkRef(meta, memSrc, stats), meta.OverlapsRange(r)
	}
	e.quarMu.Lock()
	n := 0
	if hasMem {
		n++
	}
	for _, ce := range sh.chunks[seriesID] {
		if !ce.meta.OverlapsRange(r) {
			continue
		}
		if _, bad := e.quarantined[chunkID{ce.meta.SeriesID, ce.meta.Version}]; !bad {
			n++
		}
	}
	snap.Chunks = make([]storage.ChunkRef, 0, n)
	for _, ce := range sh.chunks[seriesID] {
		if !ce.meta.OverlapsRange(r) {
			continue
		}
		if qerr, ok := e.quarantined[chunkID{ce.meta.SeriesID, ce.meta.Version}]; ok {
			snap.Warnings.Add("chunk %s v%d quarantined, excluded: %v", ce.meta.SeriesID, ce.meta.Version, qerr)
			continue
		}
		snap.Chunks = append(snap.Chunks, storage.NewChunkRef(ce.meta, ce.src, stats))
	}
	e.quarMu.Unlock()
	if hasMem {
		snap.Chunks = append(snap.Chunks, mem)
	}
	for _, d := range e.modsLog().ForSeries(seriesID) {
		if d.Start < r.End && d.End >= r.Start {
			snap.Deletes = append(snap.Deletes, d)
		}
	}
	snap.Pyramid = e.pyrViewFor(seriesID, r)
	return snap, nil
}

// SeriesIDs lists every series with buffered or flushed data, sorted. The
// sorted order is load-bearing: wildcard queries expand through it, so the
// result must be deterministic across runs and shard counts.
func (e *Engine) SeriesIDs() []string {
	set := make(map[string]bool)
	for _, sh := range e.shards {
		sh.mu.RLock()
		for id := range sh.chunks {
			set[id] = true
		}
		for id, buf := range sh.mem {
			if len(buf) > 0 {
				set[id] = true
			}
		}
		sh.mu.RUnlock()
	}
	ids := make([]string, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Info summarizes engine state for tooling.
type Info struct {
	Shards         int
	Files          int
	UnseqFiles     int // files holding out-of-order (unsequence) data
	Chunks         int
	MemtablePoints int
	NextVersion    storage.Version
	Deletes        int

	// BadFiles counts chunk files quarantined on disk (renamed *.bad)
	// because their footer never validated — crash leftovers.
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
	// ReadRetries / ReadRetryExhausted count transient chunk-read
	// retries and reads that failed even after all attempts.
	ReadRetries        int64
	ReadRetryExhausted int64

	// Rollup-pyramid state: series with cells, total cells across all
	// levels, and stale ranges awaiting rebuild. All zero when the
	// pyramid is disabled.
	PyramidSeries      int
	PyramidCells       int
	PyramidStaleRanges int

	// Segmented-WAL state (zero when the WAL is disabled). WALWarnings
	// carries recovery findings — torn tails truncated, segments
	// quarantined — verbatim for /healthz.
	WALSegments            int
	WALBytes               int64
	WALRetiredSegments     int64
	WALRetiredBytes        int64
	WALTornTruncations     int
	WALQuarantinedSegments int
	WALWarnings            []string

	// Integrity-scrubber and backup lifetime counters (see scrub.go and
	// backup.go).
	ScrubRuns          int64
	ScrubChunksScanned int64
	ScrubQuarantines   int64
	ScrubErrors        int64
	BackupRuns         int64
	LastBackupUnix     int64
}

// Info returns a snapshot of engine statistics.
func (e *Engine) Info() Info {
	var chunks, memPts int
	for _, sh := range e.shards {
		sh.mu.RLock()
		for _, cs := range sh.chunks {
			chunks += len(cs)
		}
		memPts += int(sh.memPts.Load())
		sh.mu.RUnlock()
	}
	e.fileMu.Lock()
	files, unseq, bad := len(e.files), e.unseqFiles, e.badFiles
	e.fileMu.Unlock()
	e.quarMu.Lock()
	quar := len(e.quarantined)
	e.quarMu.Unlock()
	ro, roReason := e.ReadOnly()
	ps := e.pyrInfo()
	ws := e.wal.Stats()
	info := Info{
		Shards:             len(e.shards),
		Files:              files,
		UnseqFiles:         unseq,
		Chunks:             chunks,
		MemtablePoints:     memPts,
		NextVersion:        storage.Version(e.nextVer.Load()),
		Deletes:            e.modsLog().Len(),
		BadFiles:           bad,
		QuarantinedChunks:  quar,
		ReadOnly:           ro,
		ReadOnlyReason:     roReason,
		ReadRetries:        e.readRetries.Load(),
		ReadRetryExhausted: e.retryExhausted.Load(),
		PyramidSeries:      ps.series,
		PyramidCells:       ps.cells,
		PyramidStaleRanges: ps.staleRanges,
		ScrubRuns:          e.scrubRuns.Load(),
		ScrubChunksScanned: e.scrubChunks.Load(),
		ScrubQuarantines:   e.scrubQuarantines.Load(),
		ScrubErrors:        e.scrubErrors.Load(),
		BackupRuns:         e.backupRuns.Load(),
		LastBackupUnix:     e.lastBackupUnix.Load(),

		WALSegments:            ws.Segments,
		WALBytes:               ws.Bytes,
		WALRetiredSegments:     ws.RetiredSegments,
		WALRetiredBytes:        ws.RetiredBytes,
		WALTornTruncations:     ws.TornTruncations,
		WALQuarantinedSegments: ws.QuarantinedSegments,
		WALWarnings:            ws.Warnings,
	}
	return info
}

// HasSeries reports whether seriesID has any buffered or flushed data.
func (e *Engine) HasSeries(seriesID string) bool {
	sh, _ := e.shardFor(seriesID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if len(sh.chunks[seriesID]) > 0 {
		return true
	}
	return len(sh.mem[seriesID]) > 0
}

// Close flushes every shard's memtable and releases all file handles.
func (e *Engine) Close() error {
	// The scrubber and ingest workers take shard locks, so both must be
	// fully stopped before lockAll — stopping them under the locks would
	// deadlock. stopIngest(true) drains queued batches first, so every
	// batch accepted before Close is flushed like a direct Write.
	e.stopScrubber()
	e.stopIngest(true)
	e.lockAll()
	defer e.unlockAll()
	if e.closed.Load() {
		return nil
	}
	var err error
	flushed := 0
	for _, sh := range e.shards {
		var n int
		if n, err = e.flushShardLocked(sh); err != nil {
			break
		}
		flushed += n
	}
	if err = e.afterFlush(flushed, err); err == nil {
		// Deletes and quarantines dirty the pyramid without a flush.
		err = e.pyrMaybeSave()
	}
	e.closed.Store(true)
	e.closeFiles()
	if cerr := e.modsLog().Close(); err == nil {
		err = cerr
	}
	if cerr := e.wal.Close(); err == nil {
		err = cerr
	}
	return err
}

// Kill abandons the engine the way a process kill would: file handles are
// closed, nothing is flushed, the WAL is left as-is. Crash-recovery tests
// pair it with a fresh Open over the same directory.
func (e *Engine) Kill() {
	e.stopScrubber()
	e.stopIngest(false)
	e.lockAll()
	defer e.unlockAll()
	if e.closed.Load() {
		return
	}
	e.closed.Store(true)
	e.closeFiles()
	e.modsLog().Close()
	e.wal.Close()
}

// replayRecord applies one recovered WAL record during Open (wal.Open
// calls it in log order, single-threaded) and returns the shard whose
// flush watermark the record re-claims: the owning shard for an insert,
// none for a delete. Records carry the writer's shard index for
// debuggability, but routing always re-hashes the series id so a directory
// reopens correctly under a different NumShards.
func (e *Engine) replayRecord(rec []byte) (claim int, err error) {
	op := rec[0]
	if op != walOpInsertSharded && op != walOpDeleteSharded {
		return -1, fmt.Errorf("unknown wal op %d", op)
	}
	_, body, err := encoding.Uvarint(rec[1:])
	if err != nil {
		return -1, fmt.Errorf("wal shard tag: %w", err)
	}
	if op == walOpInsertSharded {
		id, pts, err := decodeInsert(body)
		if err != nil {
			return -1, err
		}
		sh, ix := e.shardFor(id)
		e.memAppend(sh, id, pts)
		return ix, nil
	}
	d, err := decodeWALDelete(body)
	if err != nil {
		return -1, err
	}
	// A delete reaches the WAL before the mods sidecar; a crash between the
	// two appends leaves it in the WAL only. Re-append it so the delete
	// applies to flushed chunks, not just replayed points.
	mods := e.modsLog()
	if !slices.Contains(mods.All(), d) {
		if err := mods.Append(d); err != nil {
			return -1, err
		}
		e.bumpVersion(d.Version)
	}
	sh, _ := e.shardFor(d.SeriesID)
	e.pyrMarkStaleClosed(d.SeriesID, d.Start, d.End)
	sh.applyDeleteToMem(d)
	return -1, nil
}

// replayCheckpoint drops a shard's replayed memtable: the flush that wrote
// the checkpoint made every earlier record of the shard durable in chunk
// files. wal.Open only reports checkpoints written under this engine's
// shard count, so the records it clears routed to exactly this shard.
func (e *Engine) replayCheckpoint(shard int) {
	sh := e.shards[shard]
	sh.mem = make(map[string]series.Series)
	sh.memPts.Store(0)
}

// quarantineChunk excludes a chunk whose bytes failed a CRC or decode
// check from all future snapshots. Shared by the query path (via
// Snapshot.OnQuarantine) and the integrity scrubber. Reports whether this
// call was the first to quarantine the chunk.
func (e *Engine) quarantineChunk(meta storage.ChunkMeta, err error) bool {
	e.quarMu.Lock()
	id := chunkID{meta.SeriesID, meta.Version}
	_, dup := e.quarantined[id]
	if !dup {
		e.quarantined[id] = err
	}
	e.quarMu.Unlock()
	if !dup {
		e.met.quarantines.Inc()
		// The chunk's points vanish from the merged view; cells that
		// included them are wrong until the next rebuild.
		e.pyrMarkStaleClosed(meta.SeriesID, meta.First.T, meta.Last.T)
	}
	return !dup
}

// sourceFor wraps a chunk file reader with query-time fault injection
// (innermost, so cached loads are not re-faulted), the transient-read
// retry layer (above injection, so a retry re-draws the fault; below the
// cache, so only settled reads are cached) and the engine's shared cache
// when caching is enabled.
func (e *Engine) sourceFor(r *tsfile.Reader) storage.ChunkSource {
	var src storage.ChunkSource = r
	if e.opts.WrapSource != nil {
		src = e.opts.WrapSource(src)
	}
	src = storage.WithRetry(src, e.retryPolicy())
	if e.cache == nil {
		return src
	}
	return cache.Wrap(src, e.cache)
}

// CacheStats reports chunk-cache effectiveness; zero when caching is off.
func (e *Engine) CacheStats() cache.Stats {
	return e.cache.Stats()
}
