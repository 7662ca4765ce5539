package lsm

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"m4lsm/internal/faultfs"
	"m4lsm/internal/m4"
	"m4lsm/internal/m4lsm"
	"m4lsm/internal/m4udf"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
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
// into sequence/unsequence files, deletes covering flushed and unflushed
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
		{kind: 'w', id: "a", pts: pts(12, 11, 22, 12)}, // out of order: unsequence space
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
	// The tiny segment size forces WAL rotation and retirement into the
	// crash matrix: wal.rotate and wal.retire fire mid-workload.
	e, err := Open(Options{Dir: dir, FlushThreshold: 8, StepHook: inj.Step, WALSegmentBytes: 48})
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
	e, err := Open(Options{Dir: dir, FlushThreshold: 8, StepHook: inj.Step, WALSegmentBytes: 48})
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
		"flush.reopen:", "pyramid.rebuild", "pyramid.save", "wal.rotate",
		"wal.retire", "backup.manifest", "ingest.enqueue", "ingest.drain"}
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

// TestConcurrentStormTorture exercises the engine's concurrency claims all
// at once: per-series writer goroutines (each series has exactly one
// writer, so its oracle needs no locking) that also delete and flush, a
// wildcard-style batched M4 reader over every listed series, and a
// compaction loop, all racing on one engine. Run under -race by `make
// check`. While the storm runs,
// only success and internal consistency are asserted (reads race with
// writes); after the writers join and the readers stop, the engine must
// hold exactly the oracles' data and both operators must agree with the
// reference scan.
func TestConcurrentStormTorture(t *testing.T) {
	const (
		nSeries = 6
		nOps    = 120
	)
	e, err := Open(Options{Dir: t.TempDir(), FlushThreshold: 16})
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

	errCh := make(chan error, nSeries+2)
	stop := make(chan struct{})

	var writers sync.WaitGroup
	for s := 0; s < nSeries; s++ {
		writers.Add(1)
		go func(s int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(1000 + s)))
			id := ids[s]
			for i := 0; i < nOps; i++ {
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
	// Wildcard reader: expand the sorted series list, snapshot each, run
	// the batched operator.
	aux.Add(1)
	go func() {
		defer aux.Done()
		q := m4.Query{Tqs: 0, Tqe: 512, W: 16}
		for {
			select {
			case <-stop:
				return
			default:
			}
			listed := e.SeriesIDs()
			if !sort.StringsAreSorted(listed) {
				errCh <- errors.New("SeriesIDs not sorted")
				return
			}
			snaps := make([]*storage.Snapshot, 0, len(listed))
			for _, id := range listed {
				snap, err := e.Snapshot(id, q.Range())
				if err != nil {
					errCh <- err
					return
				}
				snaps = append(snaps, snap)
			}
			if _, err := m4lsm.ComputeMultiContext(context.Background(), snaps, q, m4lsm.Options{}); err != nil {
				errCh <- err
				return
			}
		}
	}()
	// Compaction loop.
	aux.Add(1)
	go func() {
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := e.Compact(); err != nil {
				errCh <- err
				return
			}
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
	q := m4.Query{Tqs: 0, Tqe: 512, W: 16}
	full := series.TimeRange{Start: -1 << 40, End: 1 << 40}
	for s, id := range ids {
		snap, err := e.Snapshot(id, full)
		if err != nil {
			t.Fatal(err)
		}
		got := materialize(t, snap, full)
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
}
