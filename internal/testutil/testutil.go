// Package testutil builds synthetic LSM states (chunks with overlaps,
// overwrites and deletes) and a naive reference merge. It is shared by the
// mergeread, m4udf and m4lsm test suites so every operator is checked
// against the same ground truth.
package testutil

import (
	"fmt"
	"math/rand"
	"sort"

	"m4lsm/internal/series"
	"m4lsm/internal/storage"
)

// GenConfig bounds the random state generator.
type GenConfig struct {
	MaxChunks      int // chunks to generate (at least 1)
	MaxChunkPoints int // points per chunk (at least 1)
	MaxDeletes     int
	TimeHorizon    int64 // timestamps drawn from [0, TimeHorizon)
	ValueRange     float64
}

// DefaultGenConfig is a small, overlap-heavy configuration that exercises
// overwrites and deletes with high probability.
var DefaultGenConfig = GenConfig{
	MaxChunks:      6,
	MaxChunkPoints: 24,
	MaxDeletes:     4,
	TimeHorizon:    120,
	ValueRange:     16,
}

// RandomSnapshot builds a random chunk/delete state for one series. Chunk
// time ranges overlap freely and values collide across chunks, so
// overwrite-by-version and delete rules are all exercised.
func RandomSnapshot(rng *rand.Rand, cfg GenConfig) *storage.Snapshot {
	stats := &storage.Stats{}
	snap := &storage.Snapshot{SeriesID: "s", Stats: stats}
	ver := storage.Version(1)
	nChunks := 1 + rng.Intn(cfg.MaxChunks)
	nDeletes := rng.Intn(cfg.MaxDeletes + 1)
	// Interleave chunk flushes and deletes in version order.
	ops := make([]bool, 0, nChunks+nDeletes) // true = chunk
	for i := 0; i < nChunks; i++ {
		ops = append(ops, true)
	}
	for i := 0; i < nDeletes; i++ {
		ops = append(ops, false)
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	// Guarantee at least one chunk exists before anything else so the
	// snapshot is never empty.
	for i, isChunk := range ops {
		if isChunk {
			ops[0], ops[i] = ops[i], ops[0]
			break
		}
	}
	for _, isChunk := range ops {
		if isChunk {
			n := 1 + rng.Intn(cfg.MaxChunkPoints)
			seen := map[int64]bool{}
			var data series.Series
			for len(data) < n {
				t := rng.Int63n(cfg.TimeHorizon)
				if seen[t] {
					continue
				}
				seen[t] = true
				data = append(data, series.Point{T: t, V: float64(rng.Intn(int(cfg.ValueRange))) - cfg.ValueRange/2})
			}
			sort.Slice(data, func(i, j int) bool { return data[i].T < data[j].T })
			ref, err := MemChunk("s", ver, data)
			if err != nil {
				panic(err) // generator bug
			}
			snap.Chunks = append(snap.Chunks, ref)
		} else {
			start := rng.Int63n(cfg.TimeHorizon)
			end := start + rng.Int63n(cfg.TimeHorizon/4+1)
			snap.Deletes = append(snap.Deletes, storage.Delete{
				SeriesID: "s", Version: ver, Start: start, End: end,
			})
		}
		ver++
	}
	return snap
}

// MemChunk builds data as the in-memory chunk (id, ver), checked as the
// chunk writer checks a chunk: non-empty, strictly increasing in time and
// free of NaN.
func MemChunk(id string, ver storage.Version, data series.Series) (storage.ChunkRef, error) {
	cols := data.Columns()
	if err := cols.Validate(); err != nil {
		return storage.ChunkRef{}, fmt.Errorf("mem chunk %s v%d: %w", id, ver, err)
	}
	first, last, bottom, top, ok := storage.ComputeMeta(cols)
	if !ok {
		return storage.ChunkRef{}, fmt.Errorf("mem chunk %s v%d: empty", id, ver)
	}
	meta := storage.ChunkMeta{SeriesID: id, Version: ver, First: first, Last: last, Bottom: bottom, Top: top}
	return storage.NewMemChunk(meta, cols), nil
}

// Chunks is an in-memory ChunkSource over several chunks of one series,
// by version, for a test that wraps a source around them: with faults, a
// cache or delays. Add every chunk before the first read.
type Chunks map[storage.Version]storage.ChunkRef

// Add builds data as chunk ver of series "s" and returns its metadata.
func (c Chunks) Add(ver storage.Version, data series.Series) (storage.ChunkMeta, error) {
	ref, err := MemChunk("s", ver, data)
	c[ver] = ref
	return ref.Meta, err
}

// ReadChunk implements storage.ChunkSource.
func (c Chunks) ReadChunk(m storage.ChunkMeta) (series.Columns, error) { return c[m.Version].Load(nil) }

// ReadTimes implements storage.ChunkSource.
func (c Chunks) ReadTimes(m storage.ChunkMeta) ([]int64, error) { return c[m.Version].LoadTimes(nil) }

// ReadValues implements storage.ChunkSource.
func (c Chunks) ReadValues(m storage.ChunkMeta) ([]float64, error) {
	return c[m.Version].LoadValues(nil)
}

// NaiveMerge computes the merged series of Definition 2.7 restricted to r
// with a map, independent of the heap-based iterator under test.
func NaiveMerge(snap *storage.Snapshot, r series.TimeRange) (series.Series, error) {
	type versioned struct {
		p   series.Point
		ver storage.Version
	}
	best := map[int64]versioned{}
	for _, c := range snap.Chunks {
		data, err := c.Load(snap.Stats)
		if err != nil {
			return nil, err
		}
		for _, p := range data.Points() {
			if cur, ok := best[p.T]; !ok || c.Meta.Version > cur.ver {
				best[p.T] = versioned{p, c.Meta.Version}
			}
		}
	}
	var out series.Series
	for t, v := range best {
		if !r.Contains(t) {
			continue
		}
		dead := false
		for _, d := range snap.Deletes {
			if d.Version > v.ver && d.Covers(t) {
				dead = true
				break
			}
		}
		if !dead {
			out = append(out, v.p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out, nil
}
