// Package cache provides a byte-bounded LRU for decoded chunk columns and
// a ChunkSource decorator that serves repeated reads from memory. The
// engine reads chunk files directly — the paper's experiments run cold,
// every query paying its I/O — so the benchmark's warm-read fixture is the
// package's only user.
package cache

import (
	"container/list"
	"sync"

	"m4lsm/internal/series"
	"m4lsm/internal/storage"
)

// kind discriminates cached column sets.
type kind uint8

const (
	kindTimes kind = iota
	kindData
)

type key struct {
	seriesID string
	version  storage.Version
	k        kind
}

type entry struct {
	key   key
	size  int64
	times []int64        // kindTimes
	cols  series.Columns // kindData
}

// LRU is a thread-safe byte-bounded least-recently-used cache shared by
// every chunk source of an engine.
type LRU struct {
	mu       sync.Mutex
	capBytes int64
	used     int64
	ll       *list.List // front = most recent
	items    map[key]*list.Element
}

// NewLRU builds a cache bounded to capBytes of decoded column data
// (approximated as 16 bytes per cached point, 8 for timestamp-only
// entries). capBytes <= 0 disables caching entirely.
func NewLRU(capBytes int64) *LRU {
	return &LRU{capBytes: capBytes, ll: list.New(), items: map[key]*list.Element{}}
}

func (c *LRU) get(k key) (*entry, bool) {
	if c == nil || c.capBytes <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry), true
}

func (c *LRU) put(e *entry) {
	if c == nil || c.capBytes <= 0 || e.size > c.capBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[e.key]; ok {
		c.used += e.size - el.Value.(*entry).size
		el.Value = e
		c.ll.MoveToFront(el)
	} else {
		c.items[e.key] = c.ll.PushFront(e)
		c.used += e.size
	}
	for c.used > c.capBytes {
		back := c.ll.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*entry)
		c.ll.Remove(back)
		delete(c.items, victim.key)
		c.used -= victim.size
	}
}

func (c *LRU) remove(k key) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.ll.Remove(el)
		delete(c.items, k)
		c.used -= el.Value.(*entry).size
	}
}

// Source decorates a ChunkSource with the shared LRU.
type Source struct {
	inner storage.ChunkSource
	lru   *LRU
}

// Wrap returns a caching view of src. A nil or zero-capacity LRU passes
// reads straight through.
func Wrap(src storage.ChunkSource, lru *LRU) *Source {
	return &Source{inner: src, lru: lru}
}

// ReadChunk implements storage.ChunkSource.
func (s *Source) ReadChunk(meta storage.ChunkMeta) (series.Columns, error) {
	k := key{meta.SeriesID, meta.Version, kindData}
	if e, ok := s.lru.get(k); ok {
		return e.cols, nil
	}
	data, err := s.inner.ReadChunk(meta)
	if err != nil {
		return series.Columns{}, err
	}
	s.lru.put(&entry{key: k, size: int64(data.Len()) * 16, cols: data})
	return data, nil
}

// ReadTimes implements storage.ChunkSource. A cached full chunk also
// serves timestamp reads.
func (s *Source) ReadTimes(meta storage.ChunkMeta) ([]int64, error) {
	if e, ok := s.lru.get(key{meta.SeriesID, meta.Version, kindData}); ok {
		return e.cols.Times(), nil
	}
	k := key{meta.SeriesID, meta.Version, kindTimes}
	if e, ok := s.lru.get(k); ok {
		return e.times, nil
	}
	ts, err := s.inner.ReadTimes(meta)
	if err != nil {
		return nil, err
	}
	s.lru.put(&entry{key: k, size: int64(len(ts)) * 8, times: ts})
	return ts, nil
}

// ReadValues implements storage.ChunkSource. A cached full chunk serves
// the read. Otherwise the value block is read, and a cached timestamp entry
// is upgraded to a full one with it; without one nothing is cached, since a
// value column is never cached apart from its timestamps.
func (s *Source) ReadValues(meta storage.ChunkMeta) ([]float64, error) {
	k := key{meta.SeriesID, meta.Version, kindData}
	if e, ok := s.lru.get(k); ok {
		return e.cols.Values(), nil
	}
	vs, err := s.inner.ReadValues(meta)
	if err != nil {
		return nil, err
	}
	if e, ok := s.lru.get(key{meta.SeriesID, meta.Version, kindTimes}); ok {
		s.lru.remove(e.key)
		s.lru.put(&entry{key: k, size: int64(len(vs)) * 16, cols: series.NewColumns(e.times, vs)})
	}
	return vs, nil
}

// Recycle implements storage.Recycler. An enabled cache may hold the very
// columns a query hands back, so only a disabled one forwards them to the
// source it wraps.
func (s *Source) Recycle(ts []int64, vs []float64) {
	if s.lru != nil && s.lru.capBytes > 0 {
		return
	}
	if r, ok := s.inner.(storage.Recycler); ok {
		r.Recycle(ts, vs)
	}
}

var _ storage.Recycler = (*Source)(nil)
