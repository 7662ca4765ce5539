package lsm

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
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

// TestUniqueBadSuffix: recovery must never overwrite an earlier quarantine
// file — it may be the only copy of data an operator wants to salvage.
func TestUniqueBadSuffix(t *testing.T) {
	dir := t.TempDir()
	// Crash after the chunk file lands but before the WAL reset, so the
	// data exists both in the (soon corrupted) file and in the WAL.
	crash := errors.New("test crash")
	e, err := Open(Options{Dir: dir, SyncWAL: true, StepHook: func(site string) error {
		if site == "flush.walreset" {
			return crash
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Write("s1", pts(10, 1)...); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); !errors.Is(err, crash) {
		t.Fatalf("flush = %v, want injected crash", err)
	}
	e.Kill()
	files, _ := filepath.Glob(filepath.Join(dir, "*.tsf"))
	if len(files) != 1 {
		t.Fatalf("files = %v", files)
	}
	// An earlier crash already quarantined a file under the default name.
	prior := []byte("salvageable bytes from a previous crash")
	if err := os.WriteFile(files[0]+".bad", prior, 0o644); err != nil {
		t.Fatal(err)
	}
	// Truncate the live file so this open quarantines it too.
	raw, _ := os.ReadFile(files[0])
	if err := os.WriteFile(files[0], raw[:len(raw)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	e2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	got, err := os.ReadFile(files[0] + ".bad")
	if err != nil || !reflect.DeepEqual(got, prior) {
		t.Errorf("prior quarantine file overwritten (err=%v)", err)
	}
	if _, err := os.Stat(files[0] + ".bad.1"); err != nil {
		t.Errorf("new quarantine file missing: %v", err)
	}
	if n := e2.Info().BadFiles; n != 2 {
		t.Errorf("BadFiles = %d, want 2", n)
	}
	// WAL recovery still has the data.
	snap, err := e2.Snapshot("s1", series.TimeRange{Start: 0, End: 100})
	if err != nil {
		t.Fatal(err)
	}
	if got := materialize(t, snap, series.TimeRange{Start: 0, End: 100}); !reflect.DeepEqual(got, series.Series(pts(10, 1))) {
		t.Errorf("recovered %v", got)
	}
}

// buildFaultStore flushes several chunks of one series and returns the
// expected merged data.
func buildFaultStore(t *testing.T, dir string) series.Series {
	t.Helper()
	e, err := Open(Options{Dir: dir, FlushThreshold: 10, DisableWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	var want series.Series
	for i := int64(0); i < 60; i++ {
		p := series.Point{T: i * 2, V: float64(i % 17)}
		want = append(want, p)
		if err := e.Write("s", p); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestQueryQuarantineCorruptChunk corrupts one chunk's value block on disk
// (footer and times stay valid), then checks the full degradation path: the
// lenient query succeeds with a warning, the engine quarantines the chunk,
// later snapshots exclude it, and compaction clears the quarantine for good.
func TestQueryQuarantineCorruptChunk(t *testing.T) {
	dir := t.TempDir()
	buildFaultStore(t, dir)

	// Flip one byte inside the first chunk's value block of the first file.
	files, _ := filepath.Glob(filepath.Join(dir, "*.tsf"))
	if len(files) == 0 {
		t.Fatal("no chunk files")
	}
	r, err := tsfile.Open(files[0])
	if err != nil {
		t.Fatal(err)
	}
	meta := r.Metas()[0]
	r.Close()
	raw, _ := os.ReadFile(files[0])
	raw[meta.Offset+int64(meta.HeaderLen)+meta.TimesLen] ^= 0x40
	if err := os.WriteFile(files[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	e, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	q := m4.Query{Tqs: 0, Tqe: 120, W: 6}
	snap, err := e.Snapshot("s", q.Range())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m4udf.Compute(snap, q); err != nil {
		t.Fatalf("lenient query over corrupt chunk failed: %v", err)
	}
	if snap.Warnings.Len() == 0 {
		t.Fatal("no warning for dropped chunk")
	}
	if n := e.Info().QuarantinedChunks; n != 1 {
		t.Fatalf("QuarantinedChunks = %d, want 1", n)
	}

	// The next snapshot excludes the chunk up front, with a warning.
	snap2, err := e.Snapshot("s", q.Range())
	if err != nil {
		t.Fatal(err)
	}
	if len(snap2.Chunks) != len(snap.Chunks)-1 {
		t.Errorf("chunks = %d, want %d", len(snap2.Chunks), len(snap.Chunks)-1)
	}
	if snap2.Warnings.Len() != 1 || !strings.Contains(snap2.Warnings.List()[0], "quarantined") {
		t.Errorf("warnings = %v", snap2.Warnings.List())
	}

	// A strict query over the degraded snapshot must fail, not skip.
	snap3, _ := e.Snapshot("s", q.Range())
	if _, err := m4lsm.ComputeContext(context.Background(), snap3, q, m4lsm.Options{Strict: true}); err == nil && snap3.Warnings.Len() == 0 {
		t.Error("strict query silently succeeded over corrupt chunk")
	}

	// Compaction rewrites the store from readable chunks; the quarantine
	// entries refer to a retired generation and are dropped.
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if n := e.Info().QuarantinedChunks; n != 0 {
		t.Errorf("QuarantinedChunks after compact = %d, want 0", n)
	}
	// A query still holding a pre-compaction snapshot reads the corrupt
	// chunk again after the swap: the chunk is no longer live, so it is
	// not quarantined a second time.
	if _, err := m4udf.Compute(snap, q); err != nil {
		t.Fatal(err)
	}
	if n := e.Info().QuarantinedChunks; n != 0 {
		t.Errorf("QuarantinedChunks after a pre-compaction read = %d, want 0", n)
	}
	snap4, err := e.Snapshot("s", q.Range())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m4lsm.ComputeContext(context.Background(), snap4, q, m4lsm.Options{Strict: true}); err != nil {
		t.Errorf("strict query after compact: %v", err)
	}
}

// TestCompactQuarantinesCorruptChunk corrupts one chunk's value block on
// disk and compacts with no read before it: compaction itself finds the
// chunk corrupt, quarantines it (counted once), sets its file aside as
// *.bad and keeps every other point. A read error that is not corruption
// still fails Compact, quarantining nothing.
func TestCompactQuarantinesCorruptChunk(t *testing.T) {
	dir := t.TempDir()
	all := buildFaultStore(t, dir)
	files, _ := filepath.Glob(filepath.Join(dir, "*.tsf"))
	if len(files) < 2 {
		t.Fatalf("files = %v, want several", files)
	}
	r, err := tsfile.Open(files[0])
	if err != nil {
		t.Fatal(err)
	}
	meta := r.Metas()[0]
	r.Close()
	raw, _ := os.ReadFile(files[0])
	raw[meta.Offset+int64(meta.HeaderLen)+meta.TimesLen] ^= 0x40
	if err := os.WriteFile(files[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var want series.Series
	for _, p := range all {
		if p.T < meta.First.T || p.T > meta.Last.T {
			want = append(want, p)
		}
	}

	// A transient read failure of any chunk fails the compaction.
	hiccup := errors.New("injected: read hiccup")
	failing := func(src storage.ChunkSource) storage.ChunkSource {
		return sourceFunc{
			read:  func(storage.ChunkMeta) (series.Columns, error) { return series.Columns{}, hiccup },
			times: func(storage.ChunkMeta) ([]int64, error) { return nil, hiccup },
		}
	}
	reg := obs.NewRegistry()
	e, err := Open(Options{Dir: dir, Metrics: reg, WrapSource: failing})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Compact(); !errors.Is(err, hiccup) {
		t.Fatalf("Compact over failing reads = %v, want the read error", err)
	}
	if n := e.Info().QuarantinedChunks; n != 0 {
		t.Fatalf("QuarantinedChunks = %d after transient failures, want 0", n)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	reg = obs.NewRegistry()
	e, err = Open(Options{Dir: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Compact(); err != nil {
		t.Fatalf("Compact over a corrupt chunk: %v", err)
	}
	if got := reg.Counter("lsm_quarantines_total").Value(); got != 1 {
		t.Errorf("lsm_quarantines_total = %d, want 1", got)
	}
	if _, err := os.Stat(files[0] + ".bad"); err != nil {
		t.Errorf("the corrupt chunk's file was not set aside: %v", err)
	}
	full := series.TimeRange{Start: -1 << 40, End: 1 << 40}
	snap, err := e.Snapshot("s", full)
	if err != nil {
		t.Fatal(err)
	}
	if got := materialize(t, snap, full); !seriesEqual(got, want) {
		t.Errorf("after compaction: %d points, want %d:\n%v\nwant\n%v", len(got), len(want), got, want)
	}
	if snap.Warnings.Len() != 0 {
		t.Errorf("the compacted store warns: %v", snap.Warnings.List())
	}
}

// TestTransientFaultsNotQuarantined: an injected read error (an I/O hiccup)
// is attempted exactly once and degrades only the query that met it — a
// warning naming the chunk, or under STRICT an error wrapping the fault —
// and quarantines nothing: the next query reads the chunk again and
// answers in full.
func TestTransientFaultsNotQuarantined(t *testing.T) {
	dir := t.TempDir()
	want := buildFaultStore(t, dir)
	full := series.TimeRange{Start: 0, End: 1 << 20}
	// Seven spans over six 20-unit chunks cut chunks, so M4-LSM loads some.
	q := m4.Query{Tqs: 0, Tqe: 120, W: 7}
	m4lsmRun := func(strict bool) func(*storage.Snapshot) ([]m4.Aggregate, error) {
		return func(s *storage.Snapshot) ([]m4.Aggregate, error) {
			return m4lsm.ComputeContext(context.Background(), s, q, m4lsm.Options{Strict: strict})
		}
	}
	for _, tc := range []struct {
		name   string
		every  bool // every read of the first query fails, not only its first
		run    func(*storage.Snapshot) ([]m4.Aggregate, error)
		strict bool
	}{
		{"every read fails", true, func(s *storage.Snapshot) ([]m4.Aggregate, error) { return m4udf.Compute(s, q) }, false},
		{"fails once", false, m4lsmRun(false), false},
		{"fails once strict", false, m4lsmRun(true), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clean, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			snap, err := clean.Snapshot("s", full)
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := tc.run(snap)
			if err != nil {
				t.Fatal(err)
			}
			if err := clean.Close(); err != nil {
				t.Fatal(err)
			}

			inj := faultfs.NewInjector(faultfs.Config{Seed: 7, ErrRate: 1})
			var faulty, armed atomic.Bool
			armed.Store(true)
			var hit storage.ChunkMeta // the chunk whose read failed once
			fails := func(m storage.ChunkMeta) bool {
				if !faulty.Load() {
					return false
				}
				if tc.every {
					return true
				}
				if armed.CompareAndSwap(true, false) {
					hit = m
					return true
				}
				return false
			}
			reg := obs.NewRegistry()
			e, err := Open(Options{Dir: dir, Metrics: reg, WrapSource: func(src storage.ChunkSource) storage.ChunkSource {
				wrapped := faultfs.Wrap(src, inj)
				return sourceFunc{
					read:  func(m storage.ChunkMeta) (series.Columns, error) { return pick(fails(m), wrapped, src).ReadChunk(m) },
					times: func(m storage.ChunkMeta) ([]int64, error) { return pick(fails(m), wrapped, src).ReadTimes(m) },
				}
			}})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()

			snap, err = e.Snapshot("s", full)
			if err != nil {
				t.Fatal(err)
			}
			faulty.Store(true)
			_, err = tc.run(snap)
			faulty.Store(false)
			var failedLoads int64
			if tc.strict {
				if !errors.Is(err, faultfs.ErrInjected) {
					t.Fatalf("strict query over a failed read = %v, want the injected fault", err)
				}
				failedLoads = 1
			} else {
				if err != nil {
					t.Fatalf("lenient query: %v", err)
				}
				for _, w := range snap.Warnings.List() {
					if strings.Contains(w, "unreadable, skipped") {
						failedLoads++
					}
				}
				if failedLoads == 0 {
					t.Fatalf("reads failed but no chunk was reported: %v", snap.Warnings.List())
				}
				if name := fmt.Sprintf("chunk %s v%d unreadable", hit.SeriesID, hit.Version); !tc.every &&
					(failedLoads != 1 || !slices.ContainsFunc(snap.Warnings.List(), func(w string) bool { return strings.Contains(w, name) })) {
					t.Fatalf("one failed read: warnings %v, want one naming %q", snap.Warnings.List(), name)
				}
			}
			if got := inj.Stats().Errors; got != failedLoads {
				t.Errorf("%d injected errors for %d failed loads: a failed read must be attempted once", got, failedLoads)
			}
			if n := e.Info().QuarantinedChunks; n != 0 {
				t.Fatalf("transient faults quarantined %d chunks", n)
			}
			if got := reg.Counter("lsm_quarantines_total").Value(); got != 0 {
				t.Fatalf("lsm_quarantines_total = %d, want 0", got)
			}

			// The fault has cleared: the next snapshot reads every chunk again.
			snap2, err := e.Snapshot("s", full)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tc.run(snap2)
			if err != nil {
				t.Fatalf("query after the fault cleared: %v", err)
			}
			if !reflect.DeepEqual(got, oracle) {
				t.Errorf("after the fault cleared: %v, want %v", got, oracle)
			}
			if pts := materialize(t, snap2, full); !reflect.DeepEqual(pts, want) {
				t.Errorf("data lost after transient faults: got %d points, want %d", len(pts), len(want))
			}
			if snap2.Warnings.Len() != 0 {
				t.Errorf("warnings on clean snapshot: %v", snap2.Warnings.List())
			}
		})
	}
}

type sourceFunc struct {
	read  func(storage.ChunkMeta) (series.Columns, error)
	times func(storage.ChunkMeta) ([]int64, error)
}

func (s sourceFunc) ReadChunk(m storage.ChunkMeta) (series.Columns, error) { return s.read(m) }
func (s sourceFunc) ReadTimes(m storage.ChunkMeta) ([]int64, error)        { return s.times(m) }

// ReadValues is the value half of read, so a double that fails data reads
// fails value-only reads too.
func (s sourceFunc) ReadValues(m storage.ChunkMeta) ([]float64, error) {
	cols, err := s.read(m)
	return cols.Values(), err
}

func pick(faulty bool, a, b storage.ChunkSource) storage.ChunkSource {
	if faulty {
		return a
	}
	return b
}

// TestFaultMatrix sweeps seeds and fault rates over the whole query path:
// lenient queries must never fail or hang, results without warnings must
// equal the clean reference, and strict queries must either fail with the
// injected fault or return the exact reference — never a silent partial.
func TestFaultMatrix(t *testing.T) {
	dir := t.TempDir()
	buildFaultStore(t, dir)
	q := m4.Query{Tqs: 0, Tqe: 120, W: 6}

	clean, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := clean.Snapshot("s", q.Range())
	if err != nil {
		t.Fatal(err)
	}
	want, err := m4lsm.Compute(snap, q)
	if err != nil {
		t.Fatal(err)
	}
	clean.Close()

	for seed := int64(0); seed < 8; seed++ {
		for _, rate := range []float64{0.05, 0.25, 0.6} {
			inj := faultfs.NewInjector(faultfs.Config{
				Seed: seed, ErrRate: rate / 2, FlipRate: rate / 2, Latency: 1,
			})
			e, err := Open(Options{Dir: dir, WrapSource: func(src storage.ChunkSource) storage.ChunkSource {
				s := faultfs.Wrap(src, inj)
				s.CorruptErr = tsfile.ErrCorrupt
				return s
			}})
			if err != nil {
				t.Fatal(err)
			}
			for name, run := range map[string]func(*storage.Snapshot) ([]m4.Aggregate, error){
				"m4lsm": func(s *storage.Snapshot) ([]m4.Aggregate, error) {
					return m4lsm.ComputeContext(context.Background(), s, q, m4lsm.Options{})
				},
				"m4udf": func(s *storage.Snapshot) ([]m4.Aggregate, error) {
					return m4udf.ComputeContext(context.Background(), s, q, m4udf.Options{})
				},
				"m4lsm/strict": func(s *storage.Snapshot) ([]m4.Aggregate, error) {
					return m4lsm.ComputeContext(context.Background(), s, q, m4lsm.Options{Strict: true})
				},
			} {
				snap, err := e.Snapshot("s", q.Range())
				if err != nil {
					t.Fatal(err)
				}
				aggs, err := run(snap)
				strict := strings.HasSuffix(name, "strict")
				if err != nil {
					if !strict {
						t.Fatalf("seed %d rate %g: lenient %s failed: %v", seed, rate, name, err)
					}
					if !errors.Is(err, faultfs.ErrInjected) && !errors.Is(err, tsfile.ErrCorrupt) {
						t.Fatalf("seed %d rate %g: strict error is not the injected fault: %v", seed, rate, err)
					}
					continue
				}
				// A result with zero warnings (none inherited from the
				// quarantine at snapshot time, none added by the run) claims
				// to be complete — it must be the exact answer.
				if snap.Warnings.Len() == 0 {
					for i := range want {
						if !m4.Equivalent(aggs[i], want[i]) {
							t.Fatalf("seed %d rate %g: %s span %d: silently wrong: got %v, want %v",
								seed, rate, name, i, aggs[i], want[i])
						}
					}
				}
			}
			e.Close()
		}
	}
}

// TestTornWALTail: a crash mid-append leaves a partial record at the WAL
// tail; reopen must recover every complete record and drop the tail.
func TestTornWALTail(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir, SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Write("s1", pts(10, 1, 20, 2)...); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete("s1", 20, 25); err != nil {
		t.Fatal(err)
	}
	e.Kill() // no flush: everything lives in the WAL

	walPath := filepath.Join(dir, "wal.log")
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x09, 0x01, 0x02}); err != nil { // length 9, 2 bytes present
		t.Fatal(err)
	}
	f.Close()

	e2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("recovery with torn tail: %v", err)
	}
	defer e2.Close()
	snap, err := e2.Snapshot("s1", series.TimeRange{Start: 0, End: 100})
	if err != nil {
		t.Fatal(err)
	}
	got := materialize(t, snap, series.TimeRange{Start: 0, End: 100})
	if !reflect.DeepEqual(got, series.Series(pts(10, 1))) {
		t.Errorf("recovered %v, want [(10,1)]", got)
	}
	// The truncation must be operator-visible, not silent.
	info := e2.Info()
	if info.WALTornTruncations != 1 {
		t.Errorf("WALTornTruncations = %d, want 1", info.WALTornTruncations)
	}
	if len(info.RecoveryWarnings) != 1 || !strings.Contains(info.RecoveryWarnings[0], "torn tail") {
		t.Errorf("RecoveryWarnings = %q, want one torn-tail warning", info.RecoveryWarnings)
	}
}

// TestStepHookSiteNames documents the contract that step sites are stable
// strings a StepInjector can count on.
func TestStepHookSiteNames(t *testing.T) {
	dir := t.TempDir()
	var sites []string
	e, err := Open(Options{Dir: dir, StepHook: func(site string) error {
		sites = append(sites, site)
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Write("s", pts(1, 1)...); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	want := []string{"ingest.enqueue", "ingest.drain", "wal.append", "wal.group", "wal.appended", "flush.create:000000.tsf",
		"flush.chunk:000000.tsf", "flush.footer:000000.tsf",
		"flush.reopen:000000.tsf", "pyramid.rebuild", "flush.walreset",
		"wal.retire", "pyramid.save"}
	if fmt.Sprint(sites) != fmt.Sprint(want) {
		t.Errorf("sites = %v, want %v", sites, want)
	}
}
