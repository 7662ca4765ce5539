package m4lsm

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"m4lsm/internal/m4"
	"m4lsm/internal/obs"
	"m4lsm/internal/reprops"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
	"m4lsm/internal/tsfile"
	"m4lsm/internal/workload"
)

// table4Snapshot builds the paper's Table 4 storage shape: MF03 points in
// chunks of 1000, a tenth of them written as fully overlapping pairs, then
// 20 range deletes of 500 intervals each. The chunks are encoded once into
// a chunk file held in memory, so every load decodes them as a cold read
// of the file would. The file's reader is every chunk's source.
func table4Snapshot(tb testing.TB, chunks int) (*storage.Snapshot, *tsfile.Reader) {
	tb.Helper()
	const chunkSize = 1000
	preset := workload.MF03()
	data := preset.Generate(chunks*chunkSize, 1)
	path := filepath.Join(tb.TempDir(), "table4.tsf")
	w, err := tsfile.Create(path)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	ver := storage.Version(1)
	write := func(pts series.Series) {
		if _, err := w.WriteChunk("root.mf03", ver, pts.Columns()); err != nil {
			tb.Fatal(err)
		}
		ver++
	}
	for i := 0; i < chunks; i++ {
		part := data[i*chunkSize : (i+1)*chunkSize]
		if i+1 < chunks && rng.Float64() < 0.10 {
			// Interleave the pair: both chunks span the union's range.
			pair := data[i*chunkSize : (i+2)*chunkSize]
			var even, odd series.Series
			for j, p := range pair {
				if j%2 == 0 {
					even = append(even, p)
				} else {
					odd = append(odd, p)
				}
			}
			write(even)
			write(odd)
			i++
			continue
		}
		write(part)
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	r, err := tsfile.OpenReaderAt(bytes.NewReader(raw), int64(len(raw)), "table4")
	if err != nil {
		tb.Fatal(err)
	}
	snap := &storage.Snapshot{SeriesID: "root.mf03", Stats: &storage.Stats{}, Warnings: &storage.Warnings{}}
	for _, m := range r.Metas() {
		snap.Chunks = append(snap.Chunks, storage.NewChunkRef(m, r))
	}
	lo, hi := data[0].T, data[len(data)-1].T
	for i := 0; i < 20; i++ {
		start := lo + rng.Int63n(hi-lo)
		snap.Deletes = append(snap.Deletes, storage.Delete{SeriesID: "root.mf03", Version: ver, Start: start, End: start + 500*preset.IntervalMs})
		ver++
	}
	return snap, r
}

// fullQuery asks for w spans over the snapshot's whole extent.
func fullQuery(snap *storage.Snapshot, w int) m4.Query {
	q := m4.Query{Tqs: snap.Chunks[0].Meta.First.T, Tqe: snap.Chunks[0].Meta.Last.T + 1, W: w}
	for _, c := range snap.Chunks {
		q.Tqs = min(q.Tqs, c.Meta.First.T)
		q.Tqe = max(q.Tqe, c.Meta.Last.T+1)
	}
	return q
}

// BenchmarkComputeTable4 is one M4-LSM query over the Table 4 shape at the
// paper's two span counts, every chunk load a decode.
func BenchmarkComputeTable4(b *testing.B) {
	snap, _ := table4Snapshot(b, 64)
	for _, w := range []int{100, 1000} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			q := fullQuery(snap, w)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Compute(snap, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// table4Mix is paper_cold's window mix over the snapshot's extent, 208
// queries: eight classes, w in {100, 1000} times four strata of window
// size that tile the whole range down to 1/64 of it, each class dealt 26
// windows evenly over its stratum, each at a random offset.
func table4Mix(snap *storage.Snapshot) []m4.Query {
	const classes, perClass = 8, 26
	full := fullQuery(snap, 1)
	extent := full.Tqe - full.Tqs
	rng := rand.New(rand.NewSource(1))
	qs := make([]m4.Query, 0, classes*perClass)
	for c := 0; c < classes; c++ {
		w := []int{100, 1000}[c%2]
		for k := 0; k < perClass; k++ {
			u := (float64(c/2) + (float64(k)+rng.Float64())/perClass) / 4
			win := max(int64(float64(extent)*math.Pow(64, -u)), int64(w))
			off := full.Tqs + int64(float64(extent-win)*rng.Float64())
			qs = append(qs, m4.Query{Tqs: off, Tqe: off + win, W: w})
		}
	}
	return qs
}

// BenchmarkComputeTable4Mix runs paper_cold's window mix over the Table 4
// shape at paper_cold's size, 262 chunks, every load a decode. One op is
// the whole mix; ms/query is its mean.
func BenchmarkComputeTable4Mix(b *testing.B) {
	benchTable4Mix(b, Options{})
}

// BenchmarkComputeTable4MixMetered is the same mix metered into an
// obs.Registry, as the server runs the operator; the two differ only in
// metering, so the gap between them is what the counters and the task
// histogram cost.
func BenchmarkComputeTable4MixMetered(b *testing.B) {
	benchTable4Mix(b, Options{Metrics: obs.NewRegistry()})
}

func benchTable4Mix(b *testing.B, opts Options) {
	snap, _ := table4Snapshot(b, 262)
	qs := table4Mix(snap)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			if _, err := ComputeContext(context.Background(), snap, q, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N*len(qs)), "ms/query")
}

// BenchmarkComputePyramid is one query answered from pyramid cells alone:
// the snapshot and the operator over cell-aligned windows at w=1024, as
// aggregates (Compute) and as the points /render draws
// (ReduceMultiContext, whose aggregates go back to their pool).
func BenchmarkComputePyramid(b *testing.B) {
	e := alignedEngine(b)
	var qs []m4.Query
	for off := int64(0); off+1<<16 <= alignedPoints; off += 1 << 13 {
		qs = append(qs, m4.Query{Tqs: off, Tqe: off + 1<<16, W: 1024})
	}
	for _, bc := range []struct {
		name string
		run  func(*storage.Snapshot, m4.Query) error
	}{
		{"Compute", func(snap *storage.Snapshot, q m4.Query) error {
			_, err := Compute(snap, q)
			return err
		}},
		{"ReduceMultiContext", func(snap *storage.Snapshot, q m4.Query) error {
			_, err := ReduceMultiContext(context.Background(), []*storage.Snapshot{snap}, q, reprops.Spec{}, Options{})
			return err
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := qs[i%len(qs)]
				snap := alignedSnapshot(b, e, q)
				if err := bc.run(snap, q); err != nil {
					b.Fatal(err)
				}
				if loads := snap.Stats.Load().ChunksLoaded; loads != 0 {
					b.Fatalf("aligned window loaded %d chunks", loads)
				}
			}
		})
	}
}

// TestComputeAllocsDoNotScaleWithTasks: on a fixed chunk set where every
// chunk is split, and so loaded, at both span counts, a query's allocations
// are the same few per chunk and per query whether it runs 400 tasks or
// 4000 — no task allocates its candidate-loop state.
func TestComputeAllocsDoNotScaleWithTasks(t *testing.T) {
	snap, _ := table4Snapshot(t, 32)
	allocs := func(w int) float64 {
		q := fullQuery(snap, w)
		return testing.AllocsPerRun(3, func() {
			if _, err := ComputeContext(context.Background(), snap, q, Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(100), allocs(1000)
	if many > few+64 {
		t.Errorf("allocations per query: %v at w=100, %v at w=1000; want at most 64 more for 10x the tasks", few, many)
	}
}

// blockReads counts, per chunk version, the reads that decode each block.
type blockReads struct {
	inner storage.ChunkSource
	mu    sync.Mutex
	times map[storage.Version]int // ReadTimes and ReadChunk
	vals  map[storage.Version]int // ReadValues and ReadChunk
}

func (b *blockReads) count(m storage.ChunkMeta, times, vals int) {
	b.mu.Lock()
	b.times[m.Version] += times
	b.vals[m.Version] += vals
	b.mu.Unlock()
}

func (b *blockReads) ReadChunk(m storage.ChunkMeta) (series.Columns, error) {
	b.count(m, 1, 1)
	return b.inner.ReadChunk(m)
}

func (b *blockReads) ReadTimes(m storage.ChunkMeta) ([]int64, error) {
	b.count(m, 1, 0)
	return b.inner.ReadTimes(m)
}

func (b *blockReads) ReadValues(m storage.ChunkMeta) ([]float64, error) {
	b.count(m, 0, 1)
	return b.inner.ReadValues(m)
}

// TestTimestampBlockDecodedOnce: a chunk whose timestamps a probe already
// fetched is completed with its value block alone, so no query decodes a
// chunk's timestamp block, or its value block, twice.
func TestTimestampBlockDecodedOnce(t *testing.T) {
	snap, r := table4Snapshot(t, 32)
	for _, w := range []int{10, 100, 1000} {
		reads := &blockReads{inner: r, times: map[storage.Version]int{}, vals: map[storage.Version]int{}}
		stats := &storage.Stats{}
		s := &storage.Snapshot{SeriesID: snap.SeriesID, Deletes: snap.Deletes, Stats: stats, Warnings: &storage.Warnings{}}
		for _, c := range snap.Chunks {
			s.Chunks = append(s.Chunks, storage.NewChunkRef(c.Meta, reads))
		}
		if _, err := Compute(s, fullQuery(s, w)); err != nil {
			t.Fatal(err)
		}
		completed := 0
		for ver, n := range reads.times {
			if n > 1 || reads.vals[ver] > 1 {
				t.Errorf("w=%d: chunk v%d: timestamp block decoded %d times, value block %d", w, ver, n, reads.vals[ver])
			}
			if n == 1 && reads.vals[ver] == 1 {
				completed++
			}
		}
		if int64(completed) != stats.ChunksLoaded {
			t.Errorf("w=%d: %d chunks fully read, stats count %d loads", w, completed, stats.ChunksLoaded)
		}
	}
}
