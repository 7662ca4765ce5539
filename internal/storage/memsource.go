package storage

import (
	"fmt"
	"sync"

	"m4lsm/internal/series"
)

// MemSource is an in-memory ChunkSource. The LSM engine uses it to expose
// the unflushed memtable to queries, and tests use it to build arbitrary
// chunk/delete states without touching disk.
type MemSource struct {
	mu     sync.RWMutex
	chunks map[chunkKey]*memChunk
}

// memChunk is a registered chunk: the rows as handed in, and their columnar
// form, built by the first read. Most snapshots of a memtable are never
// loaded (metadata or the pyramid answers), so AddChunk does not convert.
type memChunk struct {
	rows series.Series
	once sync.Once
	cols series.Columns
}

type chunkKey struct {
	seriesID string
	version  Version
}

// NewMemSource returns an empty in-memory source.
func NewMemSource() *MemSource {
	return &MemSource{chunks: make(map[chunkKey]*memChunk)}
}

// AddChunk registers data as a chunk and returns its metadata. The data
// must be sorted; it is not copied.
func (m *MemSource) AddChunk(seriesID string, version Version, data series.Series) (ChunkMeta, error) {
	if err := data.Validate(); err != nil {
		return ChunkMeta{}, fmt.Errorf("mem chunk %s v%d: %w", seriesID, version, err)
	}
	first, last, bottom, top, ok := ComputeMeta(data)
	if !ok {
		return ChunkMeta{}, fmt.Errorf("mem chunk %s v%d: empty", seriesID, version)
	}
	meta := ChunkMeta{
		SeriesID: seriesID,
		Version:  version,
		Count:    int64(len(data)),
		First:    first,
		Last:     last,
		Bottom:   bottom,
		Top:      top,
		// Synthetic sizes so cost counters stay meaningful: 8 bytes
		// per column element, its raw width.
		TimesLen:  int64(len(data)) * 8,
		ValuesLen: int64(len(data)) * 8,
	}
	m.mu.Lock()
	m.chunks[chunkKey{seriesID, version}] = &memChunk{rows: data}
	m.mu.Unlock()
	return meta, nil
}

// ReadChunk implements ChunkSource.
func (m *MemSource) ReadChunk(meta ChunkMeta) (series.Columns, error) {
	m.mu.RLock()
	c, ok := m.chunks[chunkKey{meta.SeriesID, meta.Version}]
	m.mu.RUnlock()
	if !ok {
		return series.Columns{}, fmt.Errorf("mem source: no chunk %s v%d", meta.SeriesID, meta.Version)
	}
	c.once.Do(func() { c.cols = c.rows.Columns() })
	return c.cols, nil
}

// ReadTimes implements ChunkSource.
func (m *MemSource) ReadTimes(meta ChunkMeta) ([]int64, error) {
	cols, err := m.ReadChunk(meta)
	return cols.Times(), err
}

// ReadValues implements ChunkSource.
func (m *MemSource) ReadValues(meta ChunkMeta) ([]float64, error) {
	cols, err := m.ReadChunk(meta)
	return cols.Values(), err
}

var _ ChunkSource = (*MemSource)(nil)
