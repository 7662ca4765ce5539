package lsm

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"m4lsm/internal/faultfs"
	"m4lsm/internal/m4"
	"m4lsm/internal/m4lsm"
	"m4lsm/internal/m4udf"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
	"m4lsm/internal/tsfile"
	"m4lsm/internal/wal"
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
// later snapshots exclude it, and compaction clears the quarantine.
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
	snap4, err := e.Snapshot("s", q.Range())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m4lsm.ComputeContext(context.Background(), snap4, q, m4lsm.Options{Strict: true}); err != nil {
		t.Errorf("strict query after compact: %v", err)
	}
}

// TestTransientFaultsNotQuarantined: injected read errors (I/O hiccups) must
// degrade the query but stay retryable — no quarantine entry, and a later
// fault-free query sees the full data.
func TestTransientFaultsNotQuarantined(t *testing.T) {
	dir := t.TempDir()
	want := buildFaultStore(t, dir)

	inj := faultfs.NewInjector(faultfs.Config{Seed: 7, ErrRate: 1})
	faulty := true
	e, err := Open(Options{Dir: dir, WrapSource: func(src storage.ChunkSource) storage.ChunkSource {
		wrapped := faultfs.Wrap(src, inj)
		return sourceFunc{
			read:  func(m storage.ChunkMeta) (series.Columns, error) { return pick(faulty, wrapped, src).ReadChunk(m) },
			times: func(m storage.ChunkMeta) ([]int64, error) { return pick(faulty, wrapped, src).ReadTimes(m) },
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	full := series.TimeRange{Start: 0, End: 1 << 20}
	snap, err := e.Snapshot("s", full)
	if err != nil {
		t.Fatal(err)
	}
	q := m4.Query{Tqs: 0, Tqe: 120, W: 6}
	if _, err := m4udf.Compute(snap, q); err != nil {
		t.Fatalf("lenient query: %v", err)
	}
	if snap.Warnings.Len() == 0 {
		t.Fatal("every read faults but no warnings")
	}
	if n := e.Info().QuarantinedChunks; n != 0 {
		t.Fatalf("transient faults quarantined %d chunks", n)
	}
	// The fault "clears" (e.g. the disk recovers): the same engine must now
	// serve everything.
	faulty = false
	snap2, err := e.Snapshot("s", full)
	if err != nil {
		t.Fatal(err)
	}
	if got := materialize(t, snap2, full); !reflect.DeepEqual(got, want) {
		t.Errorf("data lost after transient faults: got %d points, want %d", len(got), len(want))
	}
	if snap2.Warnings.Len() != 0 {
		t.Errorf("warnings on clean snapshot: %v", snap2.Warnings.List())
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
					return m4lsm.ComputeContext(context.Background(), s, q, m4lsm.Options{Parallelism: 4})
				},
				"m4udf": func(s *storage.Snapshot) ([]m4.Aggregate, error) {
					return m4udf.ComputeContext(context.Background(), s, q, m4udf.Options{Parallelism: 4})
				},
				"m4lsm/strict": func(s *storage.Snapshot) ([]m4.Aggregate, error) {
					return m4lsm.ComputeContext(context.Background(), s, q, m4lsm.Options{Parallelism: 4, Strict: true})
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

	walPath := wal.SegmentPath(dir, 1) // the active (and only) WAL segment
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
	if len(info.WALWarnings) != 1 || !strings.Contains(info.WALWarnings[0], "torn tail") {
		t.Errorf("WALWarnings = %q, want one torn-tail warning", info.WALWarnings)
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
	want := []string{"ingest.enqueue", "ingest.drain", "wal.append", "wal.group", "wal.appended", "flush.create:000000.seq.tsf",
		"flush.chunk:000000.seq.tsf", "flush.footer:000000.seq.tsf",
		"flush.reopen:000000.seq.tsf", "pyramid.rebuild", "flush.walreset",
		"wal.retire", "pyramid.save"}
	if fmt.Sprint(sites) != fmt.Sprint(want) {
		t.Errorf("sites = %v, want %v", sites, want)
	}
}
