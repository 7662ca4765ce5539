package lsm

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"syscall"
	"testing"
	"time"

	"m4lsm/internal/faultfs"
	"m4lsm/internal/obs"
	"m4lsm/internal/series"
)

// writeOutcome is everything a write is allowed to leave behind: its error
// class, the merged view and Info of the live engine, the WAL bytes, the
// write-path metric deltas, and what a kill + reopen recovers.
type writeOutcome struct {
	Class    string
	Live     map[string]series.Series
	Info     [6]int64 // memtable points, chunks, files, WAL segments, WAL bytes, read-only
	WAL      []byte
	Metrics  map[string]float64
	Replayed map[string]series.Series
}

// writeClass names the error classes of the write contract.
func writeClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrReadOnly):
		return "read-only"
	case errors.Is(err, faultfs.ErrCrash):
		return "crash"
	case errors.Is(err, ErrIngestBackpressure):
		return "backpressure"
	case errors.Is(err, errEngineClosed):
		return "closed"
	default:
		return "invalid"
	}
}

// contractMetrics are compared as deltas across forms. Call-granularity
// counters (lsm_ingest_batches_total, lsm_wal_group_commits_total) are
// deliberately not: three Writes are three batches, one WriteBatch is one.
// The two queue-admission counters at the end are compared only when no
// fault is injected behind the queue: a many-entry batch has admitted all
// its entries by the time a worker fails the first, three calls stop at
// the first failure.
var contractMetrics = []string{"lsm_points_written_total", "lsm_wal_appends_total", "lsm_wal_group_records_total",
	"lsm_ingest_backpressure_total", "lsm_read_only_trips_total", "lsm_ingest_entries_total", "lsm_ingest_points_total"}

func metricValues(reg *obs.Registry) map[string]float64 {
	snap := reg.Snapshot()
	out := map[string]float64{}
	for _, name := range contractMetrics {
		switch v := snap[name].(type) {
		case int64:
			out[name] = float64(v)
		case float64:
			out[name] = v
		}
	}
	return out
}

func seriesView(t *testing.T, e *Engine, ids []string) map[string]series.Series {
	t.Helper()
	full := series.TimeRange{Start: -1 << 40, End: 1 << 40}
	out := map[string]series.Series{}
	for _, id := range ids {
		snap, err := e.Snapshot(id, full)
		if err != nil {
			t.Fatal(err)
		}
		if got := materialize(t, snap, full); len(got) > 0 {
			out[id] = got
		}
	}
	return out
}

// TestWriteContract is the write-side twin of m4ql's TestReadContract: the
// same entries issued as three Writes, three WriteBatches of one, or one
// WriteBatch of three must — under every outcome the write
// path has — fail with the same error class and leave the same memtables,
// Info, WAL bytes, metric deltas and kill + replay state. Since all three
// are one path, the outcome cannot depend on the call's granularity.
func TestWriteContract(t *testing.T) {
	ids := []string{"s0", "s1", "s2"}
	entries := []BatchEntry{
		{SeriesID: ids[0], Points: pts(10, 1, 20, 2, 30, 3, 40, 4)}, // FlushThreshold 4: flushes
		{SeriesID: ids[1], Points: pts(5, 50, 15, 51)},
		{SeriesID: ids[2], Points: pts(7, 70, 3, 71)},
	}
	withFirst := func(ent BatchEntry) []BatchEntry { return append([]BatchEntry{ent}, entries[1:]...) }

	forms := []struct {
		name  string
		write func(e *Engine, ents []BatchEntry) error
	}{
		{"write", func(e *Engine, ents []BatchEntry) error {
			for _, ent := range ents {
				if err := e.Write(ent.SeriesID, ent.Points...); err != nil {
					return err
				}
			}
			return nil
		}},
		{"batch-of-one", func(e *Engine, ents []BatchEntry) error {
			for _, ent := range ents {
				if err := e.WriteBatch(ent); err != nil {
					return err
				}
			}
			return nil
		}},
		{"batch-of-many", func(e *Engine, ents []BatchEntry) error { return e.WriteBatch(ents...) }},
	}

	// dead models a process kill at the first visit of site: that step and
	// every later one fail, so nothing after the crash point executes.
	dead := func(site string) func(string) error {
		var tripped bool
		var mu sync.Mutex
		return func(s string) error {
			mu.Lock()
			defer mu.Unlock()
			if tripped = tripped || s == site; tripped {
				return fmt.Errorf("%w: at %s", faultfs.ErrCrash, site)
			}
			return nil
		}
	}
	cases := []struct {
		name    string
		entries []BatchEntry
		hook    func() func(string) error // nil: never fails
		closed  bool                      // Close the engine before writing
		full    bool                      // saturate the queue first
		// behindQueue: the fault fires in a worker, after admission.
		behindQueue bool
		want        string
		// What must be in the live engine / survive kill + replay: how
		// many of entries, in order (-1: not checked — closed engine).
		live, replayed int
	}{
		{name: "ok", entries: entries, want: "ok", live: 3, replayed: 3},
		{name: "empty-id", entries: withFirst(BatchEntry{Points: pts(1, 1)}), want: "invalid"},
		{name: "nan", entries: withFirst(BatchEntry{SeriesID: ids[0], Points: []series.Point{{T: 1, V: nan()}}}), want: "invalid"},
		{name: "closed", entries: entries, closed: true, want: "closed", live: -1},
		{name: "enospc-wal.append", entries: entries, want: "read-only", behindQueue: true, hook: func() func(string) error {
			return func(s string) error {
				if s == "wal.append" || s == "probe.space" {
					return fmt.Errorf("injected: %w", syscall.ENOSPC)
				}
				return nil
			}
		}},
		{name: "crash-ingest.enqueue", entries: entries, want: "crash", hook: func() func(string) error { return dead("ingest.enqueue") }},
		{name: "crash-ingest.drain", entries: entries, want: "crash", behindQueue: true, hook: func() func(string) error { return dead("ingest.drain") }},
		{name: "crash-wal.append", entries: entries, want: "crash", behindQueue: true, hook: func() func(string) error { return dead("wal.append") }},
		{name: "crash-wal.group", entries: entries, want: "crash", behindQueue: true, hook: func() func(string) error { return dead("wal.group") }},
		// The first entry's record is in the WAL when the kill lands, but
		// not yet in its memtable: unacknowledged, recovered anyway.
		{name: "crash-wal.appended", entries: entries, want: "crash", behindQueue: true, replayed: 1, hook: func() func(string) error { return dead("wal.appended") }},
		{name: "backpressure", entries: entries, full: true, want: "backpressure"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var first *writeOutcome
			for _, form := range forms {
				dir := t.TempDir()
				reg := obs.NewRegistry()
				// A one-point queue with a patient enqueue makes every run
				// one entry: the next entry only gets in once the worker has
				// taken the previous one, so WAL groups and byte order are a
				// function of the entries alone. The backpressure case sheds
				// at once instead.
				wait := time.Minute
				if tc.full {
					wait = -1
				}
				hook := func(string) error { return nil }
				if tc.hook != nil {
					hook = tc.hook()
				}
				parked, release := make(chan struct{}), make(chan struct{})
				var once sync.Once
				opts := Options{Dir: dir, FlushThreshold: 4, Metrics: reg, SpaceProbeInterval: -1,
					IngestQueuePoints: 1, IngestEnqueueWait: wait,
					StepHook: func(s string) error {
						if tc.full && s == "ingest.drain" {
							once.Do(func() { close(parked); <-release })
						}
						return hook(s)
					}}
				e, err := Open(opts)
				if err != nil {
					t.Fatal(err)
				}
				var fill sync.WaitGroup
				if tc.full {
					// The worker takes the first filler and blocks in the
					// hook; a second one brings the queue to its cap.
					for i, id := range []string{"park", "fill"} {
						if i == 1 {
							<-parked
						}
						fill.Add(1)
						go func() {
							defer fill.Done()
							if err := e.WriteBatch(BatchEntry{SeriesID: id, Points: pts(-1000, 0)}); err != nil {
								t.Errorf("filler %s: %v", id, err)
							}
						}()
					}
					waitFor(t, func() bool { return e.ing.pointsIn.Load() == 2 })
				}
				if tc.closed {
					if err := e.Close(); err != nil {
						t.Fatal(err)
					}
				}
				before := metricValues(reg)
				got := writeOutcome{Class: writeClass(form.write(e, tc.entries)), Metrics: metricValues(reg)}
				close(release)
				fill.Wait()
				for name, v := range before {
					got.Metrics[name] -= v
				}
				if tc.behindQueue {
					delete(got.Metrics, "lsm_ingest_entries_total")
					delete(got.Metrics, "lsm_ingest_points_total")
				}
				if got.Class != tc.want {
					t.Fatalf("%s: error class %q, want %q", form.name, got.Class, tc.want)
				}
				if !tc.closed {
					got.Live = seriesView(t, e, ids)
				}
				info := e.Info()
				got.Info = [6]int64{int64(info.MemtablePoints), int64(info.Chunks), int64(info.Files),
					int64(info.WALSegments), info.WALBytes, 0}
				if info.ReadOnly {
					got.Info[5] = 1
				}
				segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
				sort.Strings(segs)
				for _, seg := range segs {
					raw, err := os.ReadFile(seg)
					if err != nil {
						t.Fatal(err)
					}
					got.WAL = append(got.WAL, raw...)
				}
				e.Kill()
				e2, err := Open(Options{Dir: dir})
				if err != nil {
					t.Fatalf("%s: reopen: %v", form.name, err)
				}
				got.Replayed = seriesView(t, e2, ids)
				e2.Close()

				// The absolute expectations, then form-independence.
				want := func(n int) map[string]series.Series {
					out := map[string]series.Series{}
					for _, ent := range entries[:n] {
						out[ent.SeriesID] = series.SortDedup(append(series.Series(nil), ent.Points...))
					}
					return out
				}
				if tc.live >= 0 && !reflect.DeepEqual(got.Live, want(tc.live)) {
					t.Errorf("%s: live engine holds %v, want the first %d entries", form.name, got.Live, tc.live)
				}
				if !reflect.DeepEqual(got.Replayed, want(tc.replayed)) {
					t.Errorf("%s: kill + replay recovered %v, want the first %d entries", form.name, got.Replayed, tc.replayed)
				}
				if tc.full && (got.Metrics["lsm_ingest_backpressure_total"] != 1 || got.Metrics["lsm_ingest_points_total"] != 0) {
					t.Errorf("%s: shed write counted %v, want one backpressure and no ingested point", form.name, got.Metrics)
				}
				if first == nil {
					first = &got
				} else if !reflect.DeepEqual(got, *first) {
					t.Errorf("%s differs from %s:\n got %+v\nwant %+v", form.name, forms[0].name, got, *first)
				}
			}
		})
	}
}
