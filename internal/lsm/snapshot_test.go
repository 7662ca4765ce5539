package lsm

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"m4lsm/internal/series"
	"m4lsm/internal/storage"
	"m4lsm/internal/tsfile"
)

// flushedSeries opens an engine without WAL or pyramid holding series "s"
// as n flushed chunks of per points each, chunk i at [i*per, (i+1)*per).
func flushedSeries(tb testing.TB, n, per int) *Engine {
	tb.Helper()
	e, err := Open(Options{Dir: tb.TempDir(), FlushThreshold: per, DisableWAL: true, DisablePyramid: true})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { e.Close() })
	data := make(series.Series, n*per)
	for i := range data {
		data[i] = series.Point{T: int64(i), V: float64(i % 7)}
	}
	if err := e.WriteBatch(BatchEntry{SeriesID: "s", Points: data}); err != nil {
		tb.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		tb.Fatal(err)
	}
	if got := e.Info().Chunks; got != n {
		tb.Fatalf("set-up: %d chunks, want %d", got, n)
	}
	return e
}

// BenchmarkSnapshot times one Snapshot of a flushed series: a window of 11
// chunks of 2 points out of 1k, 10k and 100k, and the dash_aligned shape,
// 640 chunks of 1,000 points read over the whole extent and its halves
// down to 1/16. A snapshot borrows its window of the registry, so its cost
// follows neither the series' length nor the window's. Two more cases read
// the newest data of 20,000 flushed points: under a memtable of 0, 100 and
// 999 points, every tenth of them late, which each snapshot sorts; and
// among 1,000 deletes of which 10 are the series' own, which each snapshot
// filters.
func BenchmarkSnapshot(b *testing.B) {
	run := func(b *testing.B, e *Engine, r series.TimeRange) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := e.Snapshot("s", r); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("chunks=%d/window=11", n), func(b *testing.B) {
			e := flushedSeries(b, n, 2)
			mid := int64(n / 2 * 2)
			b.ResetTimer()
			run(b, e, series.TimeRange{Start: mid, End: mid + 22})
		})
	}
	newest := series.TimeRange{Start: 19_000, End: 21_000}
	for _, n := range []int{0, 100, 999} {
		b.Run(fmt.Sprintf("memtable=%d", n), func(b *testing.B) {
			e := flushedSeries(b, 20, 1000)
			buf := make(series.Series, n)
			for i := range buf {
				buf[i] = series.Point{T: int64(20_000 + i), V: 1}
				if i%10 == 9 { // late: back into the flushed extent
					buf[i].T = int64(19_990 - i)
				}
			}
			if err := e.WriteBatch(BatchEntry{SeriesID: "s", Points: buf}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			run(b, e, newest)
		})
	}
	b.Run("deletes", func(b *testing.B) {
		e := flushedSeries(b, 20, 1000)
		for i := 0; i < 1000; i++ {
			id, t := fmt.Sprintf("other%d", i%7), int64(i*20)
			if i%100 == 0 {
				id, t = "s", int64(19_000+i)
			}
			if err := e.Delete(id, t, t+5); err != nil {
				b.Fatal(err)
			}
		}
		if snap, _ := e.Snapshot("s", newest); len(snap.Deletes) != 10 {
			b.Fatalf("snapshot holds %d deletes, want 10", len(snap.Deletes))
		}
		b.ResetTimer()
		run(b, e, newest)
	})
	b.Run("dash_aligned", func(b *testing.B) {
		e := flushedSeries(b, 640, 1000)
		for k := 0; k <= 4; k++ {
			b.Run(fmt.Sprintf("window=1/%d", 1<<k), func(b *testing.B) {
				run(b, e, series.TimeRange{Start: 0, End: 640_000 >> k})
			})
		}
	})
}

// TestSnapshotCostFollowsNoWindow: with no memtable and no pyramid, a
// snapshot of one chunk and one of 500 allocate the same count and bytes,
// because both borrow their chunk list from the registry.
func TestSnapshotCostFollowsNoWindow(t *testing.T) {
	e := flushedSeries(t, 1000, 2)
	cost := func(r series.TimeRange) (allocs float64, bytes uint64) {
		snap := func() {
			if _, err := e.Snapshot("s", r); err != nil {
				t.Fatal(err)
			}
		}
		allocs = testing.AllocsPerRun(50, snap)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < 50; i++ {
			snap()
		}
		runtime.ReadMemStats(&m1)
		return allocs, (m1.TotalAlloc - m0.TotalAlloc) / 50
	}
	one := series.TimeRange{Start: 600, End: 602}
	many := series.TimeRange{Start: 600, End: 1600}
	for _, r := range []series.TimeRange{one, many} {
		snap, _ := e.Snapshot("s", r)
		if want := int(r.End-r.Start) / 2; len(snap.Chunks) != want {
			t.Fatalf("window %v holds %d chunks, want %d", r, len(snap.Chunks), want)
		}
	}
	a1, b1 := cost(one)
	a500, b500 := cost(many)
	if a1 != a500 || b1 != b500 {
		t.Errorf("a snapshot of 1 chunk allocates %.0f times, %d B; of 500 chunks %.0f times, %d B: want the same", a1, b1, a500, b500)
	}
}

// chunkMetas copies the metadata of a snapshot's chunk list.
func chunkMetas(snap *storage.Snapshot) []storage.ChunkMeta {
	out := make([]storage.ChunkMeta, len(snap.Chunks))
	for i, c := range snap.Chunks {
		out[i] = c.Meta
	}
	return out
}

// TestSnapshotWindowIsEveryOverlappingChunk holds the window search to its
// contract over random layouts of long and short, in-order and late
// chunks, nested ones included, some quarantined: a snapshot lists exactly
// the live chunks overlapping its range, each once, and warns once per
// quarantined chunk it overlaps.
func TestSnapshotWindowIsEveryOverlappingChunk(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := openTestEngine(t, Options{FlushThreshold: 1 << 20, DisableWAL: true})
		for f := 0; f < 12; f++ {
			start := rng.Int63n(1000)
			if f%3 == 0 {
				start += 1000 // in order, past everything so far
			}
			n, step := 1+rng.Intn(5), 1+rng.Int63n(60)
			var pts series.Series
			for i := 0; i < n; i++ {
				pts = append(pts, series.Point{T: start + int64(i)*step, V: float64(i)})
			}
			if err := e.Write("s", pts...); err != nil {
				t.Fatal(err)
			}
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		// Every chunk on disk, and a few of them quarantined.
		var all []storage.ChunkMeta
		for _, f := range e.files {
			all = append(all, f.Metas()...)
		}
		bad := map[storage.Version]bool{}
		for _, m := range all {
			if rng.Intn(5) == 0 && e.quarantineChunk(m, tsfile.ErrCorrupt) {
				bad[m.Version] = true
			}
		}
		for q := 0; q < 200; q++ {
			lo := rng.Int63n(2400) - 100
			r := series.TimeRange{Start: lo, End: lo + rng.Int63n(400)}
			snap, err := e.Snapshot("s", r)
			if err != nil {
				t.Fatal(err)
			}
			var want []storage.Version
			warns := 0
			for _, m := range all {
				switch {
				case !m.OverlapsRange(r):
				case bad[m.Version]:
					warns++
				default:
					want = append(want, m.Version)
				}
			}
			var got []storage.Version
			for _, m := range chunkMetas(snap) {
				got = append(got, m.Version)
			}
			slices.Sort(want)
			slices.Sort(got)
			if !slices.Equal(got, want) || snap.Warnings.Len() != warns {
				t.Fatalf("seed %d, range %v: chunks %v and %d warnings, want %v and %d", seed, r, got, snap.Warnings.Len(), want, warns)
			}
		}
	}
}

// TestSnapshotsKeepTheirChunkList: the registry is copy-on-write. A
// snapshot taken before a sequence flush, an unsequence flush, a
// quarantine or a compaction keeps exactly its chunk list and answers
// identically afterwards, while readers take snapshots concurrently with
// all four and check that theirs never change under them.
func TestSnapshotsKeepTheirChunkList(t *testing.T) {
	e := openTestEngine(t, Options{FlushThreshold: 16})
	write := func(lo, hi, step int64) {
		t.Helper()
		var pts series.Series
		for ts := lo; ts < hi; ts += step {
			pts = append(pts, series.Point{T: ts, V: float64(ts % 13)})
		}
		if err := e.Write("s", pts...); err != nil {
			t.Fatal(err)
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	write(0, 400, 2)
	full := series.TimeRange{Start: -1000, End: 10_000}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var held []*storage.Snapshot
			var heldMetas [][]storage.ChunkMeta
			for {
				select {
				case <-stop:
					return
				default:
				}
				lo := rng.Int63n(3000) - 100
				snap, err := e.Snapshot("s", series.TimeRange{Start: lo, End: lo + 1 + rng.Int63n(500)})
				if err != nil {
					errs <- err
					return
				}
				held, heldMetas = append(held, snap), append(heldMetas, chunkMetas(snap))
				if len(held) > 8 {
					held, heldMetas = held[1:], heldMetas[1:]
				}
				for i, s := range held {
					if !slices.Equal(chunkMetas(s), heldMetas[i]) {
						errs <- errors.New("a held snapshot's chunk list changed")
						return
					}
				}
			}
		}(int64(w + 1))
	}

	for round := int64(0); round < 3; round++ {
		base := round * 1000
		for _, op := range []struct {
			name string
			do   func()
		}{
			{"sequence flush", func() { write(base+400, base+600, 2) }},
			{"unsequence flush", func() { write(base+1, base+500, 4) }},
			{"quarantine", func() {
				snap, _ := e.Snapshot("s", full)
				if !e.quarantineChunk(snap.Chunks[len(snap.Chunks)/2].Meta, tsfile.ErrCorrupt) {
					t.Fatal("nothing quarantined")
				}
			}},
			{"compaction", func() {
				if err := e.Compact(); err != nil {
					t.Fatal(err)
				}
			}},
		} {
			before, err := e.Snapshot("s", full)
			if err != nil {
				t.Fatal(err)
			}
			metas, answer := chunkMetas(before), materialize(t, before, full)
			op.do()
			if !slices.Equal(chunkMetas(before), metas) {
				t.Errorf("%s rewrote the chunk list of a snapshot taken before it", op.name)
			}
			if got := materialize(t, before, full); !slices.Equal(got, answer) {
				t.Errorf("%s changed the answer of a snapshot taken before it", op.name)
			}
			if after, _ := e.Snapshot("s", full); slices.Equal(chunkMetas(after), metas) {
				t.Errorf("%s left the chunk list as it was", op.name)
			}
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
