package lsm

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"m4lsm/internal/faultfs"
	"m4lsm/internal/m4"
	"m4lsm/internal/m4lsm"
	"m4lsm/internal/m4udf"
	"m4lsm/internal/obs"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
	"m4lsm/internal/tsfile"
)

// The crash-recovery torture kills the write path at every step-hook site —
// WAL appends, mods appends, each flush stage — then reopens the directory
// and checks three things: Open succeeds, the recovered merged data equals
// the in-memory oracle over the acked operations (the crashed operation may
// or may not have become durable, so both outcomes are accepted), and
// M4-LSM ≡ M4-UDF ≡ M4 over the recovered merge.

type tortureOp struct {
	kind       byte // 'w' write, 'g' batched write, 'd' delete, 'f' flush, 'b' online backup
	id         string
	pts        []series.Point
	start, end int64
	entries    []BatchEntry // kind 'g'; at most one entry per series so the
	// per-series oracle check below stays exact (each entry is one WAL
	// record, so a crashed batch may recover any subset of entries)
}

// tortureOps is a fixed workload: two series, out-of-order writes that split
// into late and in-order chunks, deletes covering flushed and unflushed
// data, and explicit flushes between them. FlushThreshold 8 adds automatic
// flushes mid-write on top.
func tortureOps() []tortureOp {
	return []tortureOp{
		{kind: 'w', id: "a", pts: pts(10, 1, 20, 2, 30, 3)},
		{kind: 'w', id: "b", pts: pts(5, 50, 15, 51)},
		{kind: 'w', id: "a", pts: pts(40, 4, 50, 5, 60, 6, 70, 7, 80, 8)}, // trips the 8-point auto flush
		{kind: 'd', id: "a", start: 25, end: 45},                          // covers flushed and future data
		{kind: 'w', id: "a", pts: pts(35, 9, 90, 10)},                     // 35 rewrites inside the deleted range
		{kind: 'f'},
		{kind: 'w', id: "a", pts: pts(12, 11, 22, 12)}, // out of order: a late chunk
		{kind: 'w', id: "b", pts: pts(8, 52, 25, 53)},
		// Covers live points in a flushed chunk (t=5) AND in the memtable
		// (t=8) at once: a crash between this delete's WAL and mods appends
		// must not recover to a half-applied delete.
		{kind: 'd', id: "b", start: 0, end: 10},
		{kind: 'd', id: "a", start: 55, end: 65}, // covers flushed t=60 only
		{kind: 'f'},
		// Batched ingest through the bounded queues: ingest.enqueue,
		// ingest.drain and wal.group join the crash matrix here. One entry
		// per series — the atomicity unit — exercising both flushed-over
		// and fresh timestamps.
		{kind: 'g', entries: []BatchEntry{
			{SeriesID: "a", Points: pts(95, 15, 105, 16)},
			{SeriesID: "b", Points: pts(30, 54, 40, 55)},
		}},
		{kind: 'b'}, // online backup mid-workload; a crash must leave it rejectable
		{kind: 'w', id: "a", pts: pts(100, 13, 110, 14)},
		{kind: 'g', entries: []BatchEntry{
			{SeriesID: "b", Points: pts(2, 56, 50, 57, 60, 58)},
		}},
	}
}

type oracle map[string]map[int64]float64

func (o oracle) apply(op tortureOp) {
	switch op.kind {
	case 'w':
		m := o[op.id]
		if m == nil {
			m = map[int64]float64{}
			o[op.id] = m
		}
		for _, p := range op.pts {
			m[p.T] = p.V
		}
	case 'g':
		for _, ent := range op.entries {
			o.apply(tortureOp{kind: 'w', id: ent.SeriesID, pts: ent.Points})
		}
	case 'd':
		for t := range o[op.id] {
			if t >= op.start && t <= op.end {
				delete(o[op.id], t)
			}
		}
	}
}

func (o oracle) clone() oracle {
	out := oracle{}
	for id, m := range o {
		c := make(map[int64]float64, len(m))
		for t, v := range m {
			c[t] = v
		}
		out[id] = c
	}
	return out
}

func (o oracle) series(id string) series.Series {
	var out series.Series
	for t, v := range o[id] {
		out = append(out, series.Point{T: t, V: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}

func execOp(e *Engine, op tortureOp) error {
	switch op.kind {
	case 'w':
		return e.Write(op.id, op.pts...)
	case 'g':
		return e.WriteBatch(op.entries...)
	case 'd':
		return e.Delete(op.id, op.start, op.end)
	case 'b':
		_, err := e.Backup(filepath.Join(e.opts.Dir, "backup"))
		return err
	default:
		return e.Flush()
	}
}

// runTortureAt executes the workload with a crash armed at the failAt-th
// write-path step (0 = never), kills the engine, reopens the directory and
// verifies recovery. It returns the number of steps observed.
func runTortureAt(t *testing.T, failAt int64) int64 {
	t.Helper()
	dir := t.TempDir()
	inj := faultfs.NewStepInjector(failAt)
	e, err := Open(Options{Dir: dir, FlushThreshold: 8, StepHook: inj.Step})
	if err != nil {
		t.Fatalf("failAt %d: open: %v", failAt, err)
	}

	acked := oracle{}
	var crashed *tortureOp
	for _, op := range tortureOps() {
		op := op
		if err := execOp(e, op); err != nil {
			if !errors.Is(err, faultfs.ErrCrash) {
				t.Fatalf("failAt %d: op %+v: unexpected error %v", failAt, op, err)
			}
			crashed = &op
			break
		}
		acked.apply(op)
	}
	if crashed == nil {
		if err := e.Close(); err != nil {
			if !errors.Is(err, faultfs.ErrCrash) {
				t.Fatalf("failAt %d: close: %v", failAt, err)
			}
			crashed = &tortureOp{kind: 'f'} // a lost flush changes nothing logically
		}
	} else {
		e.Kill()
	}

	// The crashed operation may have become durable (its WAL record landed
	// before the kill) or not; both recovered states are legal.
	withCrash := acked.clone()
	if crashed != nil {
		withCrash.apply(*crashed)
	}

	e2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("failAt %d (site %v): recovery failed: %v", failAt, lastSite(inj), err)
	}
	defer e2.Close()

	// A backup either completed (verifies end to end) or crashed mid-set
	// (no manifest, rejected wholesale) — never a third state.
	if _, err := os.Stat(filepath.Join(dir, "backup", backupManifestName)); err == nil {
		if _, err := VerifyBackup(filepath.Join(dir, "backup")); err != nil {
			t.Fatalf("failAt %d (site %v): completed backup does not verify: %v", failAt, lastSite(inj), err)
		}
	} else if crashed != nil && crashed.kind == 'b' {
		if _, err := VerifyBackup(filepath.Join(dir, "backup")); err == nil {
			t.Fatalf("failAt %d (site %v): torn backup verified", failAt, lastSite(inj))
		}
	}

	full := series.TimeRange{Start: -1 << 40, End: 1 << 40}
	for _, id := range []string{"a", "b"} {
		snap, err := e2.Snapshot(id, full)
		if err != nil {
			t.Fatalf("failAt %d: snapshot %s: %v", failAt, id, err)
		}
		got := materialize(t, snap, full)
		wantA, wantB := acked.series(id), withCrash.series(id)
		if !seriesEqual(got, wantA) && !seriesEqual(got, wantB) {
			t.Fatalf("failAt %d (site %v): series %s recovered to %v,\nwant %v (acked)\n  or %v (acked+crashed)",
				failAt, lastSite(inj), id, got, wantA, wantB)
		}

		// Both operators over the recovered state must agree with plain M4
		// over the recovered merge.
		q := m4.Query{Tqs: 0, Tqe: 128, W: 8}
		want, err := m4.ComputeSeries(q, materialize(t, snap, q.Range()))
		if err != nil {
			t.Fatalf("failAt %d: oracle m4: %v", failAt, err)
		}
		for name, compute := range map[string]func() ([]m4.Aggregate, error){
			"m4lsm": func() ([]m4.Aggregate, error) {
				s, err := e2.Snapshot(id, q.Range())
				if err != nil {
					return nil, err
				}
				return m4lsm.Compute(s, q)
			},
			"m4udf": func() ([]m4.Aggregate, error) {
				s, err := e2.Snapshot(id, q.Range())
				if err != nil {
					return nil, err
				}
				return m4udf.Compute(s, q)
			},
		} {
			aggs, err := compute()
			if err != nil {
				t.Fatalf("failAt %d: %s %s: %v", failAt, name, id, err)
			}
			for i := range want {
				if !m4.Equivalent(aggs[i], want[i]) {
					t.Fatalf("failAt %d: %s %s span %d: got %v, want %v", failAt, name, id, i, aggs[i], want[i])
				}
			}
		}
	}
	return inj.Steps()
}

func lastSite(inj *faultfs.StepInjector) string {
	sites := inj.Sites()
	if len(sites) == 0 {
		return "none"
	}
	return sites[len(sites)-1]
}

func seriesEqual(a, b series.Series) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

func TestCrashRecoveryTorture(t *testing.T) {
	total := runTortureAt(t, 0)
	if total < 20 {
		t.Fatalf("workload hits only %d step sites; too small to be a torture", total)
	}
	for failAt := int64(1); failAt <= total; failAt++ {
		runTortureAt(t, failAt)
	}
}

// TestTortureSitesCovered pins the step-site classes the torture visits, so
// a refactor that silently drops a hook fails loudly here rather than
// silently shrinking the crash matrix.
func TestTortureSitesCovered(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.NewStepInjector(0)
	e, err := Open(Options{Dir: dir, FlushThreshold: 8, StepHook: inj.Step})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range tortureOps() {
		if err := execOp(e, op); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	want := []string{"wal.append", "wal.group", "wal.appended", "mods.append",
		"flush.walreset", "flush.create:", "flush.chunk:", "flush.footer:",
		"flush.reopen:", "pyramid.rebuild", "pyramid.save", "wal.retire",
		"backup.manifest", "ingest.enqueue", "ingest.drain"}
	seen := inj.Sites()
	for _, prefix := range want {
		found := false
		for _, s := range seen {
			if len(s) >= len(prefix) && s[:len(prefix)] == prefix {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no step at site %q (sites: %v)", prefix, seen)
		}
	}
}

// errCondemned marks the reads the concurrent storm fails on purpose, so
// its compaction loop tells them apart from any other corruption.
var errCondemned = errors.New("condemned chunk")

// aggsEqual reports whether two span answers are equivalent span by span.
func aggsEqual(a, b []m4.Aggregate) bool {
	for i := range a {
		if !m4.Equivalent(a[i], b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// TestConcurrentStormTorture exercises the engine's concurrency claims all
// at once, on its one lock: per-series writer goroutines (each series has
// exactly one writer, so its oracle needs no locking) that also delete and
// flush, a wildcard-style batched M4 reader over every listed series, a
// compaction loop, a scrub loop, an Info and /metrics scraper, one online
// backup, and readers of a static series some of whose chunks read as
// corrupt, so query workers quarantine from their own goroutines while the
// rest runs. Run under -race by `make check`. While the storm runs, only
// success and internal consistency are asserted for the written series
// (reads race with writes); the static series' answers are checked
// throughout. After the writers join and the readers stop, the engine must
// hold exactly the oracles' data, both operators must agree with the
// reference scan, and each condemned chunk must have been quarantined
// exactly once.
func TestConcurrentStormTorture(t *testing.T) {
	const (
		nSeries = 6
		nOps    = 120
		static  = "z"
	)
	// The static series: eight time-disjoint chunks of 16 points, written
	// before the storm and never again; compaction rewrites them along the
	// same boundaries. Halfway through the storm the chunks starting at a
	// seeded three of those boundaries turn corrupt. Until a read reaches
	// one, M4-LSM may answer from metadata and the pyramid; a read that
	// loads one drops it and is partial; once compaction folds the
	// quarantined chunks away, answers are the surviving data without a
	// warning.
	var full, surviving series.Series
	for i := 0; i < 128; i++ {
		full = append(full, series.Point{T: int64(i) * 4, V: float64(i * 7 % 23)})
	}
	starts := map[int64]bool{}
	for i, c := range rand.New(rand.NewSource(7)).Perm(8) {
		if i < 3 {
			starts[full[c*16].T] = true
		}
	}
	for _, p := range full {
		if !starts[p.T-p.T%64] {
			surviving = append(surviving, p)
		}
	}
	var armed atomic.Bool
	condemned := func(m storage.ChunkMeta) bool {
		return armed.Load() && m.SeriesID == static && starts[m.First.T]
	}
	reg := obs.NewRegistry()
	e, err := Open(Options{Dir: t.TempDir(), FlushThreshold: 16, Metrics: reg,
		WrapSource: func(src storage.ChunkSource) storage.ChunkSource {
			// A condemned chunk fails as detected bit rot would.
			fail := func(m storage.ChunkMeta) error {
				return fmt.Errorf("%w: %w %s v%d", tsfile.ErrCorrupt, errCondemned, m.SeriesID, m.Version)
			}
			return sourceFunc{
				read: func(m storage.ChunkMeta) (series.Columns, error) {
					if condemned(m) {
						return series.Columns{}, fail(m)
					}
					return src.ReadChunk(m)
				},
				times: func(m storage.ChunkMeta) ([]int64, error) {
					if condemned(m) {
						return nil, fail(m)
					}
					return src.ReadTimes(m)
				},
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	ids := make([]string, nSeries)
	oracles := make([]oracle, nSeries)
	for s := range ids {
		ids[s] = string(rune('a' + s))
		oracles[s] = oracle{}
	}
	q := m4.Query{Tqs: 0, Tqe: 512, W: 16}
	for c := 0; c < 8; c++ {
		if err := e.Write(static, full[c*16:(c+1)*16]...); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := e.Info().Chunks; n != 8 {
		t.Fatalf("static series has %d chunks, want 8", n)
	}
	wantFull, err := m4.ComputeSeries(q, full)
	if err != nil {
		t.Fatal(err)
	}
	wantSurviving, err := m4.ComputeSeries(q, surviving)
	if err != nil {
		t.Fatal(err)
	}

	errCh := make(chan error, nSeries+8)
	stop := make(chan struct{})

	var writers sync.WaitGroup
	for s := 0; s < nSeries; s++ {
		writers.Add(1)
		go func(s int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(1000 + s)))
			id := ids[s]
			for i := 0; i < nOps; i++ {
				if s == 0 && i == nOps/2 {
					armed.Store(true)
				}
				switch rng.Intn(10) {
				case 0:
					start := rng.Int63n(500)
					end := start + rng.Int63n(60)
					if err := e.Delete(id, start, end); err != nil {
						errCh <- err
						return
					}
					oracles[s].apply(tortureOp{kind: 'd', id: id, start: start, end: end})
				case 1:
					if err := e.Flush(); err != nil {
						errCh <- err
						return
					}
				default:
					n := 1 + rng.Intn(5)
					batch := make([]series.Point, n)
					for j := range batch {
						batch[j] = series.Point{T: rng.Int63n(500), V: float64(rng.Intn(100))}
					}
					if err := e.Write(id, batch...); err != nil {
						errCh <- err
						return
					}
					oracles[s].apply(tortureOp{kind: 'w', id: id, pts: batch})
				}
			}
		}(s)
	}

	var aux sync.WaitGroup
	// loop runs step in a goroutine until the storm stops or step fails.
	loop := func(step func() error) {
		aux.Add(1)
		go func() {
			defer aux.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := step(); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	// Wildcard reader: expand the sorted series list, snapshot each, run
	// the batched operator.
	loop(func() error {
		listed := e.SeriesIDs()
		if !sort.StringsAreSorted(listed) {
			return errors.New("SeriesIDs not sorted")
		}
		snaps := make([]*storage.Snapshot, 0, len(listed))
		for _, id := range listed {
			snap, err := e.Snapshot(id, q.Range())
			if err != nil {
				return err
			}
			snaps = append(snaps, snap)
		}
		_, err := m4lsm.ComputeMultiContext(context.Background(), snaps, q, m4lsm.Options{})
		return err
	})
	// Static-series reader, alternating operators: an answer without a
	// warning is the full or the surviving data.
	udf := false
	loop(func() error {
		udf = !udf
		snap, err := e.Snapshot(static, q.Range())
		if err != nil {
			return err
		}
		var got []m4.Aggregate
		if udf {
			got, err = m4udf.Compute(snap, q)
		} else {
			got, err = m4lsm.Compute(snap, q)
		}
		if err == nil && snap.Warnings.Len() == 0 && !aggsEqual(got, wantFull) && !aggsEqual(got, wantSurviving) {
			err = fmt.Errorf("static answer %v (udf %v) without a warning is neither the full nor the surviving data", got, udf)
		}
		return err
	})
	// Compaction quarantines a condemned chunk no read has reached yet
	// instead of failing, so every Compact must succeed.
	loop(e.Compact)
	loop(func() error {
		_, err := e.Scrub(ScrubOptions{})
		return err
	})
	loop(func() error {
		e.Info()
		return reg.WritePrometheus(io.Discard)
	})
	// One online backup mid-storm must verify and reopen.
	aux.Add(1)
	go func() {
		defer aux.Done()
		dir := t.TempDir()
		if _, err := e.Backup(filepath.Join(dir, "backup")); err != nil {
			errCh <- err
			return
		}
		if err := Restore(filepath.Join(dir, "backup"), filepath.Join(dir, "restored")); err != nil {
			errCh <- err
			return
		}
		r, err := Open(Options{Dir: filepath.Join(dir, "restored")})
		if err == nil {
			err = r.Close()
		}
		if err != nil {
			errCh <- fmt.Errorf("reopen backup: %w", err)
		}
	}()

	writers.Wait()
	close(stop)
	aux.Wait()

	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	// Quiesced: the engine must now hold exactly the oracles' data.
	for s, id := range ids {
		snap, err := e.Snapshot(id, everything)
		if err != nil {
			t.Fatal(err)
		}
		got := materialize(t, snap, everything)
		want := oracles[s].series(id)
		if !seriesEqual(got, want) {
			t.Fatalf("series %s: got %v, want %v", id, got, want)
		}
		ref, err := m4.ComputeSeries(q, want)
		if err != nil {
			t.Fatal(err)
		}
		snap, err = e.Snapshot(id, q.Range())
		if err != nil {
			t.Fatal(err)
		}
		lsmAggs, err := m4lsm.Compute(snap, q)
		if err != nil {
			t.Fatal(err)
		}
		snap, err = e.Snapshot(id, q.Range())
		if err != nil {
			t.Fatal(err)
		}
		udfAggs, err := m4udf.Compute(snap, q)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if !m4.Equivalent(lsmAggs[i], ref[i]) || !m4.Equivalent(udfAggs[i], ref[i]) {
				t.Fatalf("series %s span %d: lsm %v, udf %v, want %v", id, i, lsmAggs[i], udfAggs[i], ref[i])
			}
		}
	}
	// One more lenient read quarantines whatever condemned chunk no read
	// reached; each was then quarantined exactly once.
	snap, err := e.Snapshot(static, q.Range())
	if err != nil {
		t.Fatal(err)
	}
	if got, err := m4udf.Compute(snap, q); err != nil || !aggsEqual(got, wantSurviving) {
		t.Fatalf("static series after the storm: %v, %v; want %v", got, err, wantSurviving)
	}
	if got := reg.Counter("lsm_quarantines_total").Value(); got != int64(len(starts)) {
		t.Errorf("lsm_quarantines_total = %d, want %d", got, len(starts))
	}
}
