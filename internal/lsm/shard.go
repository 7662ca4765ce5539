package lsm

import (
	"runtime"
	"sync"
	"sync/atomic"

	"m4lsm/internal/series"
	"m4lsm/internal/storage"
)

// shard is one lock stripe of the engine. Series are routed to shards by
// shardIndex, and each shard owns the memtables, chunk registry and
// sequence-space watermark of its series, guarded by its own RWMutex. Global
// resources — the WAL, the mods sidecar, the chunk-file list and the
// version counter — stay shared and guard themselves (see the Engine
// comment for the lock order).
type shard struct {
	mu  sync.RWMutex
	ix  int                      // this shard's index, for WAL checkpoints
	mem map[string]series.Series // per-series unsorted write buffer

	// memPts mirrors the buffered point count. It is only mutated under
	// mu, but is read atomically across shards by Info, so every access is
	// atomic.
	memPts atomic.Int64

	chunks map[string][]chunkEntry // per-series flushed chunks

	// Sequence/unsequence separation (reference [26]): per series, the
	// largest timestamp flushed to the sequence space so far. Points at
	// or before it are out-of-order and flush to unsequence files.
	maxSeqTime map[string]int64
}

// chunkEntry is one registered flushed chunk and the source it reads from.
type chunkEntry struct {
	meta storage.ChunkMeta
	src  storage.ChunkSource
}

func newShard() *shard {
	return &shard{
		mem:        make(map[string]series.Series),
		chunks:     make(map[string][]chunkEntry),
		maxSeqTime: make(map[string]int64),
	}
}

// applyDeleteToMem removes covered points from the write buffer, so points
// written before the delete die while later writes survive. Caller holds
// sh.mu.
func (sh *shard) applyDeleteToMem(d storage.Delete) {
	buf := sh.mem[d.SeriesID]
	if len(buf) == 0 {
		return
	}
	kept := buf[:0]
	for _, p := range buf {
		if !d.Covers(p.T) {
			kept = append(kept, p)
		}
	}
	sh.memPts.Add(int64(len(kept) - len(buf)))
	sh.mem[d.SeriesID] = kept
}

// shardIndex routes a series id to its shard: FNV-1a over the id bytes,
// reduced mod n. The routing is a pure function of the id, so a directory
// written with one NumShards reopens correctly under another — recovery and
// file loading route by hash, never by the shard recorded on disk.
func shardIndex(seriesID string, n int) int {
	if n <= 1 {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(seriesID); i++ {
		h ^= uint64(seriesID[i])
		h *= prime64
	}
	return int(h % uint64(n))
}

func (e *Engine) shardFor(seriesID string) (*shard, int) {
	i := shardIndex(seriesID, len(e.shards))
	return e.shards[i], i
}

// lockAll acquires every shard's write lock in index order, the only order
// in which more than one shard lock may be held (Close, Kill, Compact).
func (e *Engine) lockAll() {
	for _, sh := range e.shards {
		sh.mu.Lock()
	}
}

func (e *Engine) unlockAll() {
	for i := len(e.shards) - 1; i >= 0; i-- {
		e.shards[i].mu.Unlock()
	}
}

// shardParallelism bounds per-shard maintenance concurrency (Flush,
// Compact): at most one worker per shard, at most GOMAXPROCS overall, and
// strictly sequential when a StepHook is installed so fault-injection
// schedules stay deterministic.
func (e *Engine) shardParallelism() int {
	if e.opts.StepHook != nil {
		return 1
	}
	par := runtime.GOMAXPROCS(0)
	if par > len(e.shards) {
		par = len(e.shards)
	}
	if par < 1 {
		par = 1
	}
	return par
}
