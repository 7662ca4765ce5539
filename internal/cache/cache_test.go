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

// state reports the bytes and entries the cache holds.
func (c *LRU) state() (used int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used, len(c.items)
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
	if used, entries := src.lru.state(); entries != 0 {
		t.Errorf("value column cached without its timestamps: %d entries, %d bytes", entries, used)
	}
	src.ReadTimes(meta)
	if vs, err := src.ReadValues(meta); err != nil || len(vs) != 2 || vs[1] != 2 {
		t.Fatal(vs, err)
	}
	if used, entries := src.lru.state(); entries != 1 || used != 2*16 {
		t.Errorf("after upgrade: %d entries, %d bytes; want one full entry", entries, used)
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
	if used, entries := src.lru.state(); used != 0 || entries != 0 {
		t.Errorf("disabled cache holds %d entries, %d bytes", entries, used)
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
	if used, entries := lru.state(); entries != 3 || used > 16*6 {
		t.Errorf("after filling: %d entries, %d bytes", entries, used)
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
	// The version-1 re-read evicted the next oldest, version 2.
	if _, ok := lru.items[key{"s", 2, kindData}]; ok {
		t.Error("version 2 survived the re-read of version 1")
	}
}

// TestWarmReadsShareColumns pins the read-only contract of ChunkSource: a
// hit hands out the cached columns themselves, so it costs no allocation —
// not even for a timestamp read answered from a cached full chunk.
func TestWarmReadsShareColumns(t *testing.T) {
	src, phys, meta := setup(t, 1<<20)
	cold, err := src.ReadChunk(meta)
	if err != nil {
		t.Fatal(err)
	}
	var (
		cols series.Columns
		ts   []int64
		vs   []float64
	)
	if n := testing.AllocsPerRun(100, func() { cols, _ = src.ReadChunk(meta) }); n != 0 {
		t.Errorf("warm ReadChunk: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { ts, _ = src.ReadTimes(meta) }); n != 0 {
		t.Errorf("warm ReadTimes: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { vs, _ = src.ReadValues(meta) }); n != 0 {
		t.Errorf("warm ReadValues: %v allocs/op, want 0", n)
	}
	if phys.chunkReads != 1 || phys.timeReads != 0 || phys.valueReads != 0 {
		t.Errorf("physical reads chunk/times/values = %d/%d/%d, want 1/0/0",
			phys.chunkReads, phys.timeReads, phys.valueReads)
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
	if used, entries := lru.state(); entries != 0 {
		t.Errorf("oversize entry cached: %d entries, %d bytes", entries, used)
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
	mem := storage.NewMemSource()
	meta, _ := mem.AddChunk("s", 1, series.Series{{T: 1, V: 1}})
	if cols, err := Wrap(mem, lru).ReadChunk(meta); err != nil || cols.Len() != 1 {
		t.Errorf("read through a nil LRU: %v, %v", cols, err)
	}
}

func TestUpdateExistingKeyAdjustsSize(t *testing.T) {
	lru := NewLRU(1000)
	k := key{"s", 1, kindData}
	lru.put(&entry{key: k, size: 100})
	lru.put(&entry{key: k, size: 300})
	if used, entries := lru.state(); used != 300 || entries != 1 {
		t.Errorf("%d entries, %d bytes; want 1, 300", entries, used)
	}
}

func ExampleLRU() {
	mem := storage.NewMemSource()
	meta, _ := mem.AddChunk("s", 1, series.Series{{T: 1, V: 1}})
	phys := &countingSource{inner: mem}
	src := Wrap(phys, NewLRU(1<<20))
	src.ReadChunk(meta)
	src.ReadChunk(meta) // served from memory
	fmt.Println(phys.chunkReads)
	// Output: 1
}
