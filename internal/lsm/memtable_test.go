package lsm

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"m4lsm/internal/m4"
	"m4lsm/internal/m4lsm"
	"m4lsm/internal/mergeread"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
)

// TestMemtableSnapshotsKeepTheirPoints: a snapshot borrows the memtable's
// columns, so no later write may touch the points it holds. Snapshots
// taken over buffered points answer the same, merged series and M4-LSM
// aggregates alike, after an in-order append (written past the first
// one's length into the very arrays it holds), a late merge, an overwrite,
// a delete and a flush; each step's snapshot is checked after every later
// step. Readers query the first one throughout while the steps run, so
// under -race a write into what it borrowed is also reported as a race.
// Last, an overwrite of the newest buffered point, whose merge with the
// columns' spare room must not land in place.
func TestMemtableSnapshotsKeepTheirPoints(t *testing.T) {
	e := openTestEngine(t, Options{FlushThreshold: 1000, DisableWAL: true, DisablePyramid: true})
	write := func(start, end, step int64, v float64) {
		t.Helper()
		var batch []series.Point
		for ts := start; ts < end; ts += step {
			batch = append(batch, series.Point{T: ts, V: v + float64(ts%17)})
		}
		if err := e.Write("s", batch...); err != nil {
			t.Fatal(err)
		}
	}
	write(0, 400, 2, 0)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	// Buffered points, merged once (the late 401) so the columns have room
	// for the in-order append below to land in place.
	write(400, 600, 2, 100)
	write(401, 402, 1, 200)

	r := series.TimeRange{Start: 0, End: 1000}
	q := m4.Query{Tqs: r.Start, Tqe: r.End, W: 10}
	type answer struct {
		merged series.Series
		aggs   []m4.Aggregate
	}
	read := func(snap *storage.Snapshot) (a answer, err error) {
		if a.merged, err = mergeread.Merge(snap, r); err != nil {
			return a, err
		}
		a.aggs, err = m4lsm.ComputeContext(context.Background(), snap, q, m4lsm.Options{Parallelism: 2})
		return a, err
	}
	type held struct {
		snap *storage.Snapshot
		want answer
	}
	var snaps []held
	take := func() {
		t.Helper()
		snap := must(e.Snapshot("s", r))
		want, err := read(snap)
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, held{snap, want})
	}
	check := func(h held, step string) error {
		got, err := read(h.snap)
		switch {
		case err != nil:
			return fmt.Errorf("after %s: %v", step, err)
		case !reflect.DeepEqual(got.merged, h.want.merged):
			return fmt.Errorf("after %s: a snapshot's merged series changed", step)
		case !reflect.DeepEqual(got.aggs, h.want.aggs):
			return fmt.Errorf("after %s: a snapshot's M4-LSM answer changed:\n got %v\nwant %v", step, got.aggs, h.want.aggs)
		}
		return nil
	}
	memOf := func(s *storage.Snapshot) series.Columns {
		t.Helper()
		cols, err := s.Chunks[len(s.Chunks)-1].Load(nil)
		if err != nil {
			t.Fatal(err)
		}
		return cols
	}
	take()
	first := snaps[0]

	stop := make(chan struct{})
	var wg, started sync.WaitGroup
	for range 2 {
		wg.Add(1)
		started.Add(1)
		go func() {
			defer wg.Done()
			err := check(first, "the first read")
			started.Done()
			for ; err == nil; err = check(first, "a concurrent step") {
				select {
				case <-stop:
					return
				default:
				}
			}
			t.Error(err)
		}()
	}
	defer func() { close(stop); wg.Wait() }()
	started.Wait() // every reader has read the snapshot once
	steps := []struct {
		name string
		do   func() error
	}{
		{"an in-order append", func() error {
			write(600, 800, 2, 300)
			if now := memOf(must(e.Snapshot("s", r))); &now.Times()[0] != &memOf(first.snap).Times()[0] {
				return fmt.Errorf("the in-order append copied the columns; the step tests nothing")
			}
			return nil
		}},
		{"a late merge", func() error { write(403, 480, 2, 400); return nil }},
		{"an overwrite", func() error { write(400, 600, 4, 500); return nil }},
		{"a delete", func() error { return e.Delete("s", 420, 560) }},
		{"a flush", e.Flush},
	}
	for _, st := range steps {
		if err := st.do(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		for _, h := range snaps {
			if err := check(h, st.name); err != nil {
				t.Error(err)
			}
		}
		take()
	}

	// An overwrite of the newest buffered timestamp merges too: written in
	// place, it would change the last value a snapshot holds. Two points
	// and then a late one leave the columns spare room, so a reallocation
	// would not hide such a write.
	if err := e.Write("u", series.Point{T: 10, V: 1}, series.Point{T: 20, V: 2}); err != nil {
		t.Fatal(err)
	}
	if err := e.Write("u", series.Point{T: 5, V: 0}); err != nil {
		t.Fatal(err)
	}
	if cols := e.mem["u"].cols; cols.Len() == cap(cols.Values()) {
		t.Fatal("the late merge left no spare room; the overwrite tests nothing")
	}
	snap := must(e.Snapshot("u", r))
	if err := e.Write("u", series.Point{T: 20, V: 3}); err != nil {
		t.Fatal(err)
	}
	got, err := mergeread.Merge(snap, r)
	if want := (series.Series{{T: 5, V: 0}, {T: 10, V: 1}, {T: 20, V: 2}}); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("after overwriting the newest point, a snapshot taken before reads %v (%v), want %v", got, err, want)
	}
}

func must(s *storage.Snapshot, err error) *storage.Snapshot {
	if err != nil {
		panic(err)
	}
	return s
}

// TestFlushThresholdCountsDistinctPoints: the flush threshold counts the
// distinct points a memtable holds. Ten writes of one timestamp under a
// threshold of ten leave one point buffered, the last value, and write no
// file.
func TestFlushThresholdCountsDistinctPoints(t *testing.T) {
	e := openTestEngine(t, Options{FlushThreshold: 10, DisableWAL: true})
	for i := range 10 {
		if err := e.Write("s", series.Point{T: 5, V: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if info := e.Info(); info.MemtablePoints != 1 || info.Files != 0 {
		t.Fatalf("after ten writes of one timestamp: %d memtable points, %d files; want 1, 0", info.MemtablePoints, info.Files)
	}
	got, err := mergeread.Merge(must(e.Snapshot("s", everything)), everything)
	if err != nil {
		t.Fatal(err)
	}
	if want := (series.Series{{T: 5, V: 9}}); !reflect.DeepEqual(got, want) {
		t.Fatalf("merged %v, want %v", got, want)
	}
}

// BenchmarkWriteBatch times one write of 8 series × 32 points into an
// engine of 16 series without WAL or pyramid, shaped like the ingest_ooo
// workload's posts: the series are dealt in turn, in-order points sit on
// even ticks past each series' head, and under late=10 every tenth write
// is late, each series' block on odd ticks 5,000 before its head, behind
// every buffered point, so it merges into fresh columns. The automatic
// flushes, one per 1,000 points a series holds, are included.
func BenchmarkWriteBatch(b *testing.B) {
	const nSeries, perPost, points = 16, 8, 32
	for _, late := range []int{0, 10} {
		b.Run(fmt.Sprintf("late=%d", late), func(b *testing.B) {
			e := openTestEngine(b, Options{DisableWAL: true, DisablePyramid: true})
			ids := make([]string, nSeries)
			heads := make([]int64, nSeries)
			for s := range ids {
				ids[s], heads[s] = fmt.Sprintf("root.ing.s%02d", s), 10_000
			}
			batch := make([]BatchEntry, perPost)
			for i := range batch {
				batch[i].Points = make([]series.Point, points)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				isLate := late > 0 && i%late == late-1
				for k := range batch {
					s := (i*perPost + k) % nSeries
					start := heads[s] + 2
					if isLate {
						start = (heads[s] - 5000) | 1
					} else {
						heads[s] += 2 * points
					}
					batch[k].SeriesID = ids[s]
					for j := range batch[k].Points {
						ts := start + 2*int64(j)
						batch[k].Points[j] = series.Point{T: ts, V: float64(ts % 97)}
					}
				}
				if err := e.WriteBatch(batch...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
