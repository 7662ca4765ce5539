package tsfile

import (
	"path/filepath"
	"testing"

	"m4lsm/internal/storage"
)

// openBenchChunk writes the high-entropy golden chunk (1,200 points,
// ~7.5 B/point) to a file of its own and opens it: the shape of chunk the
// benchmark's paper_cold workload loads.
func openBenchChunk(tb testing.TB) (*Reader, storage.ChunkMeta) {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "bench.tsf")
	w, err := Create(path)
	if err != nil {
		tb.Fatal(err)
	}
	meta, err := w.WriteChunk("root.walk", 1, goldenChunks()[0].Columns())
	if err != nil {
		tb.Fatal(err)
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { r.Close() })
	return r, meta
}

func BenchmarkReadChunk(b *testing.B) {
	r, meta := openBenchChunk(b)
	b.SetBytes(16 * meta.Count)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.ReadChunk(meta); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadTimes(b *testing.B) {
	r, meta := openBenchChunk(b)
	b.SetBytes(8 * meta.Count)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.ReadTimes(meta); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadValues(b *testing.B) {
	r, meta := openBenchChunk(b)
	b.SetBytes(8 * meta.Count)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.ReadValues(meta); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReadChunkAllocations pins what a cold load allocates: the two decoded
// columns and nothing per point — the raw block buffer is pooled (one spare
// allocation is allowed for the pool refilling after a GC).
func TestReadChunkAllocations(t *testing.T) {
	r, meta := openBenchChunk(t)
	if n := testing.AllocsPerRun(50, func() {
		if _, err := r.ReadChunk(meta); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Errorf("ReadChunk of %d points: %v allocs/op, want <= 3", meta.Count, n)
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, err := r.ReadTimes(meta); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("ReadTimes of %d points: %v allocs/op, want <= 2", meta.Count, n)
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, err := r.ReadValues(meta); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("ReadValues of %d points: %v allocs/op, want <= 2", meta.Count, n)
	}
}
