// Crash-recovery sweep: how much WAL a kill leaves behind, and how long the
// reopen replay takes, with the log as one monolithic segment versus
// size-rotated segments that retire per shard-flush checkpoint.
//
// The workload models the pathology the segmented WAL exists for: one hot
// series flushing continuously, plus one cold series on another shard whose
// occasional points keep SOME record unflushed at all times. The monolithic
// log can never truncate (truncation needs every shard clear at once), so a
// kill replays the whole write history; the segmented log retires every
// sealed segment below the cold shard's oldest unflushed record, so the
// replay is bounded by the recent tail.
package exper

import (
	"fmt"
	"io"
	"math"
	"time"

	"m4lsm/internal/lsm"
	"m4lsm/internal/m4"
	"m4lsm/internal/m4lsm"
	"m4lsm/internal/series"
)

// recoveryBaseSizes is the unscaled point-count sweep (2^16 .. 2^22).
var recoveryBaseSizes = []int{1 << 16, 1 << 18, 1 << 20, 1 << 22}

// recoverySegBytes picks the segmented side's rotation threshold: about 32
// segments per run regardless of sweep size (a WAL record is ~11 bytes per
// point batched), so retirement granularity stays proportional. The
// monolithic side uses an effectively infinite threshold so its single
// segment never seals.
func recoverySegBytes(n int) int64 {
	b := int64(n) / 3
	if b < 4096 {
		b = 4096
	}
	return b
}

// RecoveryMeasurement is one sweep point: the same kill-and-reopen cycle
// under both WAL layouts.
type RecoveryMeasurement struct {
	Points int

	// ReplayBytes is the WAL footprint on disk at the kill — exactly the
	// bytes the reopen must read back.
	MonoReplayBytes int64
	SegReplayBytes  int64
	// Replay is the fastest reopen (WAL read + memtable rebuild) of Reps.
	MonoReplay time.Duration
	SegReplay  time.Duration
	// Segments on disk at the kill, and how many the segmented run retired.
	MonoSegments int
	SegSegments  int
	SegRetired   int64
}

// ReplayShrink returns monolithic replay bytes / segmented replay bytes.
func (m RecoveryMeasurement) ReplayShrink() float64 {
	if m.SegReplayBytes <= 0 {
		return math.Inf(1)
	}
	return float64(m.MonoReplayBytes) / float64(m.SegReplayBytes)
}

// RunRecovery measures kill-and-reopen recovery across the size sweep. Both
// sides write the identical point stream; after reopen their full-range M4
// answers are cross-checked span by span, and the segmented side must
// replay strictly fewer bytes — the sweep fails otherwise.
func RunRecovery(cfg Config) ([]RecoveryMeasurement, error) {
	cfg = cfg.withDefaults()
	var out []RecoveryMeasurement
	for _, base := range recoveryBaseSizes {
		n := pyramidSize(base, cfg.Scale) // same power-of-two scaling
		m, err := runRecoverySize(cfg, n)
		if err != nil {
			return nil, err
		}
		if m.SegReplayBytes >= m.MonoReplayBytes {
			return nil, fmt.Errorf("n=%d: segmented replay bytes %d not below monolithic %d",
				n, m.SegReplayBytes, m.MonoReplayBytes)
		}
		out = append(out, m)
	}
	return out, nil
}

func runRecoverySize(cfg Config, n int) (RecoveryMeasurement, error) {
	m := RecoveryMeasurement{Points: n, MonoReplay: math.MaxInt64, SegReplay: math.MaxInt64}

	monoDir, cleanupMono, err := tempDir(cfg, fmt.Sprintf("recovery-mono-%d", n))
	if err != nil {
		return m, err
	}
	defer cleanupMono()
	segDir, cleanupSeg, err := tempDir(cfg, fmt.Sprintf("recovery-seg-%d", n))
	if err != nil {
		return m, err
	}
	defer cleanupSeg()

	monoBytes, monoSegs, _, err := recoveryIngest(cfg, monoDir, n, 1<<62)
	if err != nil {
		return m, err
	}
	segBytes, segSegs, segRetired, err := recoveryIngest(cfg, segDir, n, recoverySegBytes(n))
	if err != nil {
		return m, err
	}
	m.MonoReplayBytes, m.MonoSegments = monoBytes, monoSegs
	m.SegReplayBytes, m.SegSegments, m.SegRetired = segBytes, segSegs, segRetired

	// Reopen after the kill, Reps times each. Replay leaves the WAL intact
	// (records only retire on flush), so Kill between reps keeps the cycle
	// idempotent.
	var monoAggs, segAggs []m4.Aggregate
	for rep := 0; rep < cfg.Reps; rep++ {
		d, aggs, err := recoveryReopen(cfg, monoDir, n)
		if err != nil {
			return m, err
		}
		if d < m.MonoReplay {
			m.MonoReplay = d
		}
		monoAggs = aggs

		d, aggs, err = recoveryReopen(cfg, segDir, n)
		if err != nil {
			return m, err
		}
		if d < m.SegReplay {
			m.SegReplay = d
		}
		segAggs = aggs
	}
	// Differential check: both layouts recovered the same database.
	if len(monoAggs) != len(segAggs) {
		return m, fmt.Errorf("n=%d: span counts differ: %d vs %d", n, len(monoAggs), len(segAggs))
	}
	for i := range monoAggs {
		if !m4.Equivalent(monoAggs[i], segAggs[i]) {
			return m, fmt.Errorf("n=%d span %d: monolithic %v != segmented %v", n, i, monoAggs[i], segAggs[i])
		}
	}
	return m, nil
}

// recoveryHot/recoveryCold land on different shards of a 4-shard engine
// (verified at ingest), so the cold series' unflushed records are the only
// thing pinning the log.
const (
	recoveryShards = 4
	recoveryHot    = "recovery.hot"
	recoveryCold   = "recovery.cold"
)

// recoveryIngest writes the deterministic stream and kills the engine,
// returning the WAL bytes and segment count a reopen must replay.
func recoveryIngest(cfg Config, dir string, n int, segBytes int64) (walBytes int64, segments int, retired int64, err error) {
	e, err := lsm.Open(lsm.Options{
		Dir:             dir,
		FlushThreshold:  cfg.ChunkSize,
		NumShards:       recoveryShards,
		WALSegmentBytes: segBytes,
	})
	if err != nil {
		return 0, 0, 0, err
	}
	// The cold series reaches its flush threshold once, ~90% through the
	// stream; right after that flush one more cold point lands, so some
	// cold record is unflushed at every instant of the run.
	coldTotal := cfg.ChunkSize
	coldEvery := n * 9 / 10 / coldTotal
	if coldEvery < 1 {
		coldEvery = 1
	}
	const batch = 256
	buf := make([]series.Point, 0, batch)
	coldWritten := 0
	for t := 0; t < n; t++ {
		buf = append(buf, series.Point{T: int64(t), V: float64(t % 997)})
		if len(buf) == batch || t == n-1 {
			if err := e.Write(recoveryHot, buf...); err != nil {
				e.Kill()
				return 0, 0, 0, err
			}
			buf = buf[:0]
		}
		if coldWritten < coldTotal && t%coldEvery == 0 {
			if err := e.Write(recoveryCold, series.Point{T: int64(t), V: 1}); err != nil {
				e.Kill()
				return 0, 0, 0, err
			}
			coldWritten++
			if coldWritten == coldTotal {
				// That write crossed the cold flush threshold and unpinned
				// the log; re-pin in the same tick, before any hot flush can
				// observe an all-clear log and truncate even the monolithic
				// segment.
				if err := e.Write(recoveryCold, series.Point{T: int64(t) + 1, V: 1}); err != nil {
					e.Kill()
					return 0, 0, 0, err
				}
			}
		}
	}
	info := e.Info()
	e.Kill()
	return info.WALBytes, info.WALSegments, info.WALRetiredBytes, nil
}

// recoveryReopen opens the killed database, timing the open (WAL replay
// included), answers a full-range M4 query for the differential check, and
// kills again so the next rep replays the same log.
func recoveryReopen(cfg Config, dir string, n int) (time.Duration, []m4.Aggregate, error) {
	start := time.Now()
	e, err := lsm.Open(lsm.Options{
		Dir:            dir,
		FlushThreshold: cfg.ChunkSize,
		NumShards:      recoveryShards,
	})
	if err != nil {
		return 0, nil, err
	}
	elapsed := time.Since(start)
	q := m4.Query{Tqs: 0, Tqe: int64(n), W: 64}
	snap, err := e.Snapshot(recoveryHot, q.Range())
	if err != nil {
		e.Kill()
		return 0, nil, err
	}
	aggs, err := m4lsm.ComputeWithOptions(snap, q, m4lsm.Options{Parallelism: cfg.Parallelism})
	if err != nil {
		e.Kill()
		return 0, nil, err
	}
	e.Kill()
	return elapsed, aggs, nil
}

// RecoveryTitle names the sweep.
func RecoveryTitle() string {
	return "Recovery: replay after kill, monolithic vs segmented WAL (~32 segments/run)"
}

// WriteRecovery renders the sweep as an aligned text table.
func WriteRecovery(w io.Writer, title string, ms []RecoveryMeasurement) {
	fmt.Fprintf(w, "== %s ==\n", title)
	fmt.Fprintf(w, "%10s %14s %14s %8s %12s %12s %9s %9s %10s\n",
		"points", "monoWALbytes", "segWALbytes", "shrink", "monoReplay", "segReplay", "monoSegs", "segSegs", "segRetired")
	for _, m := range ms {
		fmt.Fprintf(w, "%10d %14d %14d %7.1fx %12s %12s %9d %9d %10d\n",
			m.Points, m.MonoReplayBytes, m.SegReplayBytes, m.ReplayShrink(),
			m.MonoReplay.Round(time.Microsecond), m.SegReplay.Round(time.Microsecond),
			m.MonoSegments, m.SegSegments, m.SegRetired)
	}
}
