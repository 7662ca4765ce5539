package cache

import (
	"fmt"
	"sync"
	"testing"

	"m4lsm/internal/series"
	"m4lsm/internal/storage"
)

// countingSource counts physical reads.
type countingSource struct {
	inner      storage.ChunkSource
	chunkReads int
	timeReads  int
	valueReads int
	mu         sync.Mutex
}

func (c *countingSource) ReadChunk(m storage.ChunkMeta) (series.Columns, error) {
	c.mu.Lock()
	c.chunkReads++
	c.mu.Unlock()
	return c.inner.ReadChunk(m)
}

func (c *countingSource) ReadTimes(m storage.ChunkMeta) ([]int64, error) {
	c.mu.Lock()
	c.timeReads++
	c.mu.Unlock()
	return c.inner.ReadTimes(m)
}

func (c *countingSource) ReadValues(m storage.ChunkMeta) ([]float64, error) {
	c.mu.Lock()
	c.valueReads++
	c.mu.Unlock()
	return c.inner.ReadValues(m)
}

func setup(t *testing.T, capBytes int64) (*Source, *countingSource, storage.ChunkMeta) {
	t.Helper()
	mem := storage.NewMemSource()
	meta, err := mem.AddChunk("s", 1, series.Series{{T: 1, V: 1}, {T: 2, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	cs := &countingSource{inner: mem}
	return Wrap(cs, NewLRU(capBytes)), cs, meta
}

func TestCacheHitsSecondRead(t *testing.T) {
	src, phys, meta := setup(t, 1<<20)
	for i := 0; i < 3; i++ {
		data, err := src.ReadChunk(meta)
		if err != nil || data.Len() != 2 {
			t.Fatal(data, err)
		}
	}
	if phys.chunkReads != 1 {
		t.Errorf("physical reads = %d, want 1", phys.chunkReads)
	}
	st := src.lru.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCachedChunkServesTimes(t *testing.T) {
	src, phys, meta := setup(t, 1<<20)
	if _, err := src.ReadChunk(meta); err != nil {
		t.Fatal(err)
	}
	ts, err := src.ReadTimes(meta)
	if err != nil || len(ts) != 2 || ts[1] != 2 {
		t.Fatal(ts, err)
	}
	if phys.timeReads != 0 {
		t.Errorf("time reads = %d, want 0 (served from cached chunk)", phys.timeReads)
	}
}

func TestTimesCachedSeparately(t *testing.T) {
	src, phys, meta := setup(t, 1<<20)
	src.ReadTimes(meta)
	src.ReadTimes(meta)
	if phys.timeReads != 1 {
		t.Errorf("time reads = %d, want 1", phys.timeReads)
	}
	// A full read still needs physical I/O (only timestamps cached).
	src.ReadChunk(meta)
	if phys.chunkReads != 1 {
		t.Errorf("chunk reads = %d, want 1", phys.chunkReads)
	}
}

// TestValueReadUpgradesTimesEntry: the value half of a load completes a
// cached timestamp entry into a full one, so the next full or value read is
// a hit; with no timestamps cached the value read passes through uncached.
func TestValueReadUpgradesTimesEntry(t *testing.T) {
	src, phys, meta := setup(t, 1<<20)
	if vs, err := src.ReadValues(meta); err != nil || len(vs) != 2 || vs[1] != 2 {
		t.Fatal(vs, err)
	}
	if st := src.lru.Stats(); st.Entries != 0 {
		t.Errorf("value column cached without its timestamps: %+v", st)
	}
	src.ReadTimes(meta)
	if vs, err := src.ReadValues(meta); err != nil || len(vs) != 2 || vs[1] != 2 {
		t.Fatal(vs, err)
	}
	if st := src.lru.Stats(); st.Entries != 1 || st.UsedBytes != 2*16 {
		t.Errorf("after upgrade: %+v, want one full entry", st)
	}
	cols, err := src.ReadChunk(meta)
	if err != nil || cols.Len() != 2 {
		t.Fatal(cols, err)
	}
	src.ReadValues(meta)
	if phys.chunkReads != 0 || phys.timeReads != 1 || phys.valueReads != 2 {
		t.Errorf("physical reads chunk/times/values = %d/%d/%d, want 0/1/2",
			phys.chunkReads, phys.timeReads, phys.valueReads)
	}
}

func TestZeroCapacityPassthrough(t *testing.T) {
	src, phys, meta := setup(t, 0)
	src.ReadChunk(meta)
	src.ReadChunk(meta)
	if phys.chunkReads != 2 {
		t.Errorf("reads = %d, want 2 with cache disabled", phys.chunkReads)
	}
	if st := src.lru.Stats(); st.Hits != 0 || st.Entries != 0 {
		t.Errorf("disabled cache has state: %+v", st)
	}
}

func TestEviction(t *testing.T) {
	mem := storage.NewMemSource()
	lru := NewLRU(16 * 6) // room for ~3 two-point chunks (2*16 bytes each)
	cs := &countingSource{inner: mem}
	src := Wrap(cs, lru)
	var metas []storage.ChunkMeta
	for v := storage.Version(1); v <= 4; v++ {
		m, err := mem.AddChunk("s", v, series.Series{{T: int64(v), V: 1}, {T: int64(v) + 10, V: 2}})
		if err != nil {
			t.Fatal(err)
		}
		metas = append(metas, m)
	}
	for _, m := range metas {
		src.ReadChunk(m)
	}
	st := lru.Stats()
	if st.Entries != 3 || st.UsedBytes > 16*6 {
		t.Errorf("after filling: %+v", st)
	}
	// Oldest (version 1) must have been evicted.
	src.ReadChunk(metas[0])
	if cs.chunkReads != 5 {
		t.Errorf("reads = %d, want eviction to force a re-read", cs.chunkReads)
	}
	// Most recent should still hit.
	before := cs.chunkReads
	src.ReadChunk(metas[3])
	if cs.chunkReads != before {
		t.Error("recent entry was evicted")
	}
	// Filling left one eviction; the version-1 re-read evicted another.
	if st := lru.Stats(); st.Evictions != 2 {
		t.Errorf("evictions = %d, want 2", st.Evictions)
	}
}

// TestChunkRefCacheAttribution: loads through a ChunkRef over a cached
// source count hits and misses into the query's Stats, the path traces use
// to report how much I/O the cache absorbed.
func TestChunkRefCacheAttribution(t *testing.T) {
	src, _, meta := setup(t, 1<<20)
	stats := &storage.Stats{}
	ref := storage.NewChunkRef(meta, src)
	for i := 0; i < 3; i++ {
		if _, err := ref.Load(stats); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ref.LoadTimes(stats); err != nil { // served by the cached chunk
		t.Fatal(err)
	}
	if _, err := ref.LoadValues(stats); err != nil { // likewise
		t.Fatal(err)
	}
	got := stats.Load()
	if got.CacheMisses != 1 || got.CacheHits != 4 {
		t.Errorf("hits=%d misses=%d, want 4/1", got.CacheHits, got.CacheMisses)
	}
	// An uncached source records neither.
	mem := storage.NewMemSource()
	m2, err := mem.AddChunk("u", 1, series.Series{{T: 1, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	stats2 := &storage.Stats{}
	ref2 := storage.NewChunkRef(m2, mem)
	if _, err := ref2.Load(stats2); err != nil {
		t.Fatal(err)
	}
	if got := stats2.Load(); got.CacheHits != 0 || got.CacheMisses != 0 {
		t.Errorf("cold source counted cache traffic: %+v", got)
	}
}

// TestWarmReadsShareColumns pins the read-only contract of ChunkSource: a
// hit hands out the cached columns themselves, so it costs no allocation —
// not even for a timestamp read answered from a cached full chunk.
func TestWarmReadsShareColumns(t *testing.T) {
	src, _, meta := setup(t, 1<<20)
	cold, err := src.ReadChunk(meta)
	if err != nil {
		t.Fatal(err)
	}
	var (
		cols series.Columns
		ts   []int64
		hit  bool
	)
	if n := testing.AllocsPerRun(100, func() { cols, hit, _ = src.ReadChunkCached(meta) }); n != 0 || !hit {
		t.Errorf("warm ReadChunkCached: %v allocs/op, hit=%v; want 0, true", n, hit)
	}
	if n := testing.AllocsPerRun(100, func() { ts, hit, _ = src.ReadTimesCached(meta) }); n != 0 || !hit {
		t.Errorf("warm ReadTimesCached: %v allocs/op, hit=%v; want 0, true", n, hit)
	}
	var vs []float64
	if n := testing.AllocsPerRun(100, func() { vs, hit, _ = src.ReadValuesCached(meta) }); n != 0 || !hit {
		t.Errorf("warm ReadValuesCached: %v allocs/op, hit=%v; want 0, true", n, hit)
	}
	if &cols.Times()[0] != &cold.Times()[0] || &ts[0] != &cold.Times()[0] || &cols.Values()[0] != &cold.Values()[0] || &vs[0] != &cold.Values()[0] {
		t.Error("a warm read returned a copy of the cached columns")
	}
}

func TestOversizeEntryNotCached(t *testing.T) {
	mem := storage.NewMemSource()
	lru := NewLRU(8)
	src := Wrap(&countingSource{inner: mem}, lru)
	meta, _ := mem.AddChunk("s", 1, series.Series{{T: 1, V: 1}, {T: 2, V: 2}})
	src.ReadChunk(meta)
	if st := lru.Stats(); st.Entries != 0 {
		t.Errorf("oversize entry cached: %+v", st)
	}
}

func TestConcurrentAccess(t *testing.T) {
	mem := storage.NewMemSource()
	lru := NewLRU(1 << 12)
	src := Wrap(&countingSource{inner: mem}, lru)
	var metas []storage.ChunkMeta
	for v := storage.Version(1); v <= 32; v++ {
		m, err := mem.AddChunk("s", v, series.Series{{T: int64(v), V: 1}})
		if err != nil {
			t.Fatal(err)
		}
		metas = append(metas, m)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m := metas[(g*7+i)%len(metas)]
				if _, err := src.ReadChunk(m); err != nil {
					t.Error(err)
					return
				}
				if _, err := src.ReadTimes(m); err != nil {
					t.Error(err)
					return
				}
				if _, err := src.ReadValues(m); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestNilLRUSafe(t *testing.T) {
	var lru *LRU
	if _, ok := lru.get(key{}); ok {
		t.Error("nil LRU returned a hit")
	}
	lru.put(&entry{}) // must not panic
	if st := lru.Stats(); st != (Stats{}) {
		t.Errorf("nil stats = %+v", st)
	}
}

func TestUpdateExistingKeyAdjustsSize(t *testing.T) {
	lru := NewLRU(1000)
	k := key{"s", 1, kindData}
	lru.put(&entry{key: k, size: 100})
	lru.put(&entry{key: k, size: 300})
	if st := lru.Stats(); st.UsedBytes != 300 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func ExampleLRU() {
	mem := storage.NewMemSource()
	meta, _ := mem.AddChunk("s", 1, series.Series{{T: 1, V: 1}})
	src := Wrap(mem, NewLRU(1<<20))
	src.ReadChunk(meta)
	src.ReadChunk(meta)
	st := src.lru.Stats()
	fmt.Println(st.Hits, st.Misses)
	// Output: 1 1
}
