package lsm

import (
	"bytes"
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
	"m4lsm/internal/tsfile"
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

// groupOutcome is what the one-WriteBatch-of-three form leaves where its
// one WAL group shows: a flush or a kill lands on the whole group, not on
// the first entry's. It commits all of entries in that one group.
type groupOutcome struct {
	memPts, chunks int64 // Info's memtable points and chunks
	walEntries     int   // how many of entries the WAL holds past its header
	replayed       int   // how many of entries a kill + replay recovers
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

// metricValues reads the write-path metrics compared as deltas across
// forms, straight from the instruments behind their names: a registry
// snapshot also evaluates the Info gauges, which wait for e.mu, and the
// backpressure case reads these while a parked writer holds it.
// Call-granularity counters (lsm_ingest_batches_total,
// lsm_wal_group_commits_total) are deliberately not compared: three Writes
// are three batches, one WriteBatch is one. The two queue-admission
// counters at the end are compared only when no fault is injected behind
// the queue: a many-entry batch is admitted whole before a drain fails it,
// three calls stop at the first failure.
func metricValues(e *Engine) map[string]float64 {
	return map[string]float64{
		"lsm_points_written_total":      float64(e.met.pointsWritten.Value()),
		"lsm_wal_appends_total":         float64(e.met.walRecords.Value()),
		"lsm_wal_group_records_total":   float64(e.wal.Stats().Records),
		"lsm_ingest_backpressure_total": float64(e.ing.backpressure.Load()),
		"lsm_read_only_trips_total":     float64(e.roTrips.Load()),
		"lsm_ingest_entries_total":      float64(e.ing.entries.Load()),
		"lsm_ingest_points_total":       float64(e.ing.pointsIn.Load()),
	}
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
// are one path, the outcome cannot depend on the call's granularity —
// except where the WAL group shows: one call is one group, so the batch of
// three commits, flushes and recovers as one unit where the other forms
// are three. In those cases (group) the batch of three is held to its own
// expectations in the fields grouping decides, and to equality with the
// other forms in every other field.
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
		// behindQueue: the fault fires in a drain, after admission.
		behindQueue bool
		want        string
		// What must be in the live engine / survive kill + replay: how
		// many of entries, in order (-1: not checked — closed engine).
		live, replayed int
		// group: the batch of three's outcome where its one WAL group
		// shows (nil: it equals the other forms').
		group *groupOutcome
	}{
		// Entry 0 fills s0's memtable: the flush it triggers covers the
		// whole group, so the batch of three leaves no memtable points,
		// three chunks and a WAL of its header alone, where the other
		// forms leave s1 and s2 in the memtable and the WAL.
		{name: "ok", entries: entries, want: "ok", live: 3, replayed: 3,
			group: &groupOutcome{memPts: 0, chunks: 3, walEntries: 0, replayed: 3}},
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
		// The first call's records are in the WAL when the kill lands, but
		// not yet in the memtable: unacknowledged, recovered anyway — the
		// first entry, or all three for the batch of three.
		{name: "crash-wal.appended", entries: entries, want: "crash", behindQueue: true, replayed: 1, hook: func() func(string) error { return dead("wal.appended") },
			group: &groupOutcome{memPts: 0, chunks: 0, walEntries: 3, replayed: 3}},
		{name: "backpressure", entries: entries, full: true, want: "backpressure"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var first *writeOutcome
			for _, form := range forms {
				dir := t.TempDir()
				reg := obs.NewRegistry()
				// A one-point queue with a patient enqueue makes every run
				// one call: the next call only gets in once a drain has taken
				// the previous one, so WAL groups and byte order are a
				// function of the calls alone. The backpressure case sheds
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
					// The first filler is elected drainer, takes e.mu and its
					// own request, and blocks in the hook; a second one
					// brings the queue to its cap and waits for the drainer.
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
				before, groupsBefore := metricValues(e), e.wal.Stats().Groups
				got := writeOutcome{Class: writeClass(form.write(e, tc.entries)), Metrics: metricValues(e)}
				groups := e.wal.Stats().Groups - groupsBefore
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
				oneGroup := tc.group != nil && form.name == "batch-of-many"
				replayed := tc.replayed
				if oneGroup {
					replayed = tc.group.replayed
				}
				if !reflect.DeepEqual(got.Replayed, want(replayed)) {
					t.Errorf("%s: kill + replay recovered %v, want the first %d entries", form.name, got.Replayed, replayed)
				}
				if oneGroup {
					got = checkGroupOutcome(t, got, *first, *tc.group, entries, groups)
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

// checkGroupOutcome holds a one-group batch's outcome to want in the
// fields grouping decides — Info's memtable points, chunks and WAL bytes,
// the WAL's records, the two WAL record counters, the group count — and
// returns it with those fields, and the replayed state the caller has
// checked, set to first's, so that what is left must equal the other
// forms' outcome field for field.
func checkGroupOutcome(t *testing.T, got, first writeOutcome, want groupOutcome, entries []BatchEntry, groups int64) writeOutcome {
	t.Helper()
	if got.Info[0] != want.memPts || got.Info[1] != want.chunks {
		t.Errorf("batch-of-many: %d memtable points in %d chunks, want %d in %d", got.Info[0], got.Info[1], want.memPts, want.chunks)
	}
	if got.Info[4] != int64(len(got.WAL)) {
		t.Errorf("batch-of-many: Info counts %d WAL bytes, the segments hold %d", got.Info[4], len(got.WAL))
	}
	hdr, recs, err := tsfile.ParseSegment(got.WAL)
	firstHdr, _, firstErr := tsfile.ParseSegment(first.WAL)
	if err != nil || firstErr != nil || hdr != firstHdr {
		t.Errorf("batch-of-many: WAL header %+v (%v), want %+v (%v)", hdr, err, firstHdr, firstErr)
	}
	ok := len(recs) == want.walEntries
	for i := 0; ok && i < len(recs); i++ {
		ok = bytes.Equal(recs[i], encodeInsert(entries[i].SeriesID, entries[i].Points))
	}
	if !ok {
		t.Errorf("batch-of-many: WAL holds %d records, want the first %d entries' records", len(recs), want.walEntries)
	}
	for _, name := range []string{"lsm_wal_appends_total", "lsm_wal_group_records_total"} {
		if got.Metrics[name] != float64(len(entries)) {
			t.Errorf("batch-of-many: %s grew by %v, want %d", name, got.Metrics[name], len(entries))
		}
	}
	if groups != 1 {
		t.Errorf("batch-of-many: committed in %d WAL groups, want 1", groups)
	}
	got.Info[0], got.Info[1], got.Info[4] = first.Info[0], first.Info[1], first.Info[4]
	got.WAL = first.WAL
	metrics := map[string]float64{}
	for name, v := range got.Metrics {
		metrics[name] = v
	}
	for _, name := range []string{"lsm_wal_appends_total", "lsm_wal_group_records_total"} {
		metrics[name] = first.Metrics[name]
	}
	got.Metrics = metrics
	got.Replayed = first.Replayed
	return got
}
