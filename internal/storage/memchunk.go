package storage

import "m4lsm/internal/series"

// memChunk is a chunk held in memory as columns: the engine's unflushed
// memtable, and the chunk states tests build without touching disk. It
// serves the one chunk it was built for, whatever metadata asks, and is
// no Recycler: its columns are shared, so no query hands them back.
type memChunk struct{ cols series.Columns }

// NewMemChunk returns a reference to cols, held in memory, as the chunk
// meta names. cols must be non-empty, strictly increasing in time and free
// of NaN, and meta's four representation points must be theirs (see
// ComputeMeta); its count and sizes are set here, to 8 bytes per column
// element, their raw width, so cost counters stay meaningful. The chunk
// borrows cols cap-limited and no load copies them: whoever handed them in
// never writes the points it handed in.
func NewMemChunk(meta ChunkMeta, cols series.Columns) ChunkRef {
	n := cols.Len()
	meta.Count, meta.TimesLen, meta.ValuesLen = int64(n), int64(n)*8, int64(n)*8
	ts, vs := cols.Times(), cols.Values()
	return NewChunkRef(meta, &memChunk{series.NewColumns(ts[:n:n], vs[:n:n])})
}

// ReadChunk implements ChunkSource.
func (c *memChunk) ReadChunk(ChunkMeta) (series.Columns, error) { return c.cols, nil }

// ReadTimes implements ChunkSource.
func (c *memChunk) ReadTimes(ChunkMeta) ([]int64, error) { return c.cols.Times(), nil }

// ReadValues implements ChunkSource.
func (c *memChunk) ReadValues(ChunkMeta) ([]float64, error) { return c.cols.Values(), nil }
