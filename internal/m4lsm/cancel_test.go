package m4lsm

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"m4lsm/internal/m4"
	"m4lsm/internal/m4udf"
	"m4lsm/internal/mergeread"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
	"m4lsm/internal/testutil"
)

// slowSource delays every read, so a cancellation arriving mid-query has
// loads left to prevent.
type slowSource struct {
	inner storage.ChunkSource
	delay time.Duration
	reads atomic.Int64
}

func (s *slowSource) ReadChunk(m storage.ChunkMeta) (series.Columns, error) {
	s.reads.Add(1)
	time.Sleep(s.delay)
	return s.inner.ReadChunk(m)
}

func (s *slowSource) ReadTimes(m storage.ChunkMeta) ([]int64, error) {
	s.reads.Add(1)
	time.Sleep(s.delay)
	return s.inner.ReadTimes(m)
}

func (s *slowSource) ReadValues(m storage.ChunkMeta) ([]float64, error) {
	s.reads.Add(1)
	time.Sleep(s.delay)
	return s.inner.ReadValues(m)
}

// slowSnapshot builds nChunks disjoint overwrite-heavy chunks behind a slow
// source; every chunk needs a load (each chunk is overwritten at one point
// by a higher version, so metadata alone cannot answer).
func slowSnapshot(t *testing.T, nChunks int, delay time.Duration) (*storage.Snapshot, *slowSource) {
	t.Helper()
	mem := testutil.Chunks{}
	slow := &slowSource{inner: mem, delay: delay}
	stats := &storage.Stats{}
	snap := &storage.Snapshot{SeriesID: "s", Stats: stats, Warnings: &storage.Warnings{}}
	ver := storage.Version(1)
	for i := 0; i < nChunks; i++ {
		base := int64(i * 20)
		data := series.Series{
			{T: base, V: float64(i)}, {T: base + 5, V: float64(-i)},
			{T: base + 10, V: float64(2 * i)}, {T: base + 15, V: 1},
		}
		meta, err := mem.Add(ver, data)
		if err != nil {
			t.Fatal(err)
		}
		snap.Chunks = append(snap.Chunks, storage.NewChunkRef(meta, slow))
		ver++
		over, err := mem.Add(ver, series.Series{{T: base + 5, V: 99}})
		if err != nil {
			t.Fatal(err)
		}
		snap.Chunks = append(snap.Chunks, storage.NewChunkRef(over, slow))
		ver++
	}
	return snap, slow
}

func TestComputeContextCancelBeforeStart(t *testing.T) {
	snap, slow := slowSnapshot(t, 4, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := m4.Query{Tqs: 0, Tqe: 80, W: 4}
	if _, err := ComputeContext(ctx, snap, q, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := slow.reads.Load(); n != 0 {
		t.Errorf("%d reads despite pre-cancelled context", n)
	}
	if loads := snap.Stats.Load(); loads.ChunksLoaded != 0 || loads.TimeBlocksLoaded != 0 {
		t.Errorf("counters moved: %+v", loads)
	}
}

// TestComputeContextCancelMidQuery cancels while the query sits in slow
// loads. ComputeContext returns context.Canceled, and the load counters
// are frozen the moment it returns.
func TestComputeContextCancelMidQuery(t *testing.T) {
	const nChunks = 24
	snap, _ := slowSnapshot(t, nChunks, 4*time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	q := m4.Query{Tqs: 0, Tqe: int64(nChunks * 20), W: 8}

	go func() {
		time.Sleep(3 * time.Millisecond)
		cancel()
	}()
	_, err := ComputeContext(ctx, snap, q, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	after := snap.Stats.Load()
	if after.ChunksLoaded+after.TimeBlocksLoaded >= 2*nChunks {
		t.Errorf("cancellation skipped nothing: %+v", after)
	}
	// Frozen thereafter: nothing of the query survives the return.
	time.Sleep(50 * time.Millisecond)
	later := snap.Stats.Load()
	if later != after {
		t.Fatalf("counters moved after return: %+v -> %+v", after, later)
	}
}

func TestM4UDFComputeContextCancel(t *testing.T) {
	const nChunks = 24
	snap, _ := slowSnapshot(t, nChunks, 4*time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	q := m4.Query{Tqs: 0, Tqe: int64(nChunks * 20), W: 8}
	go func() {
		time.Sleep(3 * time.Millisecond)
		cancel()
	}()
	_, err := m4udf.ComputeContext(ctx, snap, q, m4udf.Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	after := snap.Stats.Load()
	time.Sleep(50 * time.Millisecond)
	if later := snap.Stats.Load(); later != after {
		t.Fatalf("counters moved after return: %+v -> %+v", after, later)
	}
}

func TestMergereadLoadContextCancel(t *testing.T) {
	const nChunks = 24
	snap, _ := slowSnapshot(t, nChunks, 4*time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(3 * time.Millisecond)
		cancel()
	}()
	err := mergeread.Read(ctx, []*storage.Snapshot{snap}, "udf", mergeread.Options{Strict: true},
		func(int, *mergeread.Loaded, *mergeread.Clock) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// failingSource fails reads for chosen chunk versions with a fixed error.
type failingSource struct {
	inner storage.ChunkSource
	bad   map[storage.Version]bool
	err   error
}

func (f *failingSource) ReadChunk(m storage.ChunkMeta) (series.Columns, error) {
	if f.bad[m.Version] {
		return series.Columns{}, fmt.Errorf("read chunk v%d: %w", m.Version, f.err)
	}
	return f.inner.ReadChunk(m)
}

func (f *failingSource) ReadTimes(m storage.ChunkMeta) ([]int64, error) {
	if f.bad[m.Version] {
		return nil, fmt.Errorf("read times v%d: %w", m.Version, f.err)
	}
	return f.inner.ReadTimes(m)
}

func (f *failingSource) ReadValues(m storage.ChunkMeta) ([]float64, error) {
	if f.bad[m.Version] {
		return nil, fmt.Errorf("read values v%d: %w", m.Version, f.err)
	}
	return f.inner.ReadValues(m)
}

// degradedSnapshot: three overlapping chunks, the middle one unreadable.
func degradedSnapshot(t *testing.T) *storage.Snapshot {
	t.Helper()
	mem := testutil.Chunks{}
	bad := &failingSource{inner: mem, bad: map[storage.Version]bool{2: true}, err: errors.New("disk gone")}
	stats := &storage.Stats{}
	snap := &storage.Snapshot{SeriesID: "s", Stats: stats, Warnings: &storage.Warnings{}}
	for ver, data := range map[storage.Version]series.Series{
		1: {{T: 0, V: 1}, {T: 10, V: 5}, {T: 20, V: 2}},
		2: {{T: 10, V: 50}, {T: 30, V: -3}},
		3: {{T: 5, V: 4}, {T: 35, V: 7}},
	} {
		meta, err := mem.Add(ver, data)
		if err != nil {
			t.Fatal(err)
		}
		snap.Chunks = append(snap.Chunks, storage.NewChunkRef(meta, bad))
	}
	return snap
}

// TestDegradedQuery: in lenient mode an unreadable chunk degrades the
// result (warnings, full span count, no error); in strict mode the same
// state fails with the read error.
func TestDegradedQuery(t *testing.T) {
	q := m4.Query{Tqs: 0, Tqe: 40, W: 4}

	snap := degradedSnapshot(t)
	aggs, err := ComputeContext(context.Background(), snap, q, Options{})
	if err != nil {
		t.Fatalf("lenient: %v", err)
	}
	if len(aggs) != q.W {
		t.Fatalf("spans = %d, want %d", len(aggs), q.W)
	}
	if snap.Warnings.Len() == 0 {
		t.Fatal("no warnings for dropped chunk")
	}

	strictSnap := degradedSnapshot(t)
	if _, err := ComputeContext(context.Background(), strictSnap, q, Options{Strict: true}); err == nil {
		t.Fatal("strict mode returned a silently partial result")
	}

	udfSnap := degradedSnapshot(t)
	if _, err := m4udf.ComputeContext(context.Background(), udfSnap, q, m4udf.Options{}); err != nil {
		t.Fatalf("udf lenient: %v", err)
	}
	if udfSnap.Warnings.Len() == 0 {
		t.Fatal("udf: no warnings for dropped chunk")
	}

	udfStrict := degradedSnapshot(t)
	if _, err := m4udf.ComputeContext(context.Background(), udfStrict, q, m4udf.Options{Strict: true}); err == nil {
		t.Fatal("udf strict mode returned a silently partial result")
	}
}

// TestDegradedReportsOncePerChunk: a chunk feeding many spans appears once
// in the warning list, not once per span×G task that touched it.
func TestDegradedReportsOncePerChunk(t *testing.T) {
	mem := testutil.Chunks{}
	bad := &failingSource{inner: mem, bad: map[storage.Version]bool{2: true}, err: errors.New("io")}
	stats := &storage.Stats{}
	snap := &storage.Snapshot{SeriesID: "s", Stats: stats, Warnings: &storage.Warnings{}}
	var wide series.Series
	for i := int64(0); i < 64; i++ {
		wide = append(wide, series.Point{T: i * 2, V: float64(i % 7)})
	}
	ref, err := testutil.MemChunk("s", 1, wide)
	if err != nil {
		t.Fatal(err)
	}
	snap.Chunks = append(snap.Chunks, ref)
	// The bad chunk overwrites points across many spans, forcing loads.
	over := series.Series{{T: 3, V: 100}, {T: 41, V: 100}, {T: 81, V: 100}, {T: 121, V: 100}}
	badMeta, err := mem.Add(2, over)
	if err != nil {
		t.Fatal(err)
	}
	snap.Chunks = append(snap.Chunks, storage.NewChunkRef(badMeta, bad))

	q := m4.Query{Tqs: 0, Tqe: 128, W: 8}
	if _, err := ComputeContext(context.Background(), snap, q, Options{}); err != nil {
		t.Fatalf("lenient: %v", err)
	}
	if n := snap.Warnings.Len(); n != 1 {
		t.Fatalf("warnings = %d (%v), want 1", n, snap.Warnings.List())
	}
}
