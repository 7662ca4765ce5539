// Package mergeread implements the MergeReader of Fig. 15: it loads every
// chunk of a snapshot and streams the merged ("latest") time series of
// Definition 2.7 in time order, resolving overwrites by version number and
// applying range deletes.
//
// This is exactly the work the M4-LSM operator avoids; the M4-UDF baseline
// is built on top of this package.
package mergeread

import (
	"container/heap"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"m4lsm/internal/govern"
	"m4lsm/internal/obs"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
)

// Loaded holds every chunk of a snapshot decoded exactly once, ready to
// feed any number of iterators. Splitting the load from the merge lets the
// parallel baseline fan per-span scans across goroutines without loading
// (and counting) each chunk once per worker.
type Loaded struct {
	chunks  []loadedChunk
	deletes *storage.DeleteIndex
}

type loadedChunk struct {
	cols series.Columns
	ver  storage.Version
}

// Load decodes every chunk of the snapshot, fanning the loads across at
// most parallelism goroutines (<= 1 loads sequentially). Each chunk is
// read exactly once, so Stats.ChunksLoaded is independent of parallelism.
// Any read failure fails the load; see LoadContext for graceful mode.
func Load(snap *storage.Snapshot, parallelism int) (*Loaded, error) {
	return LoadContext(context.Background(), snap, LoadOptions{Parallelism: parallelism, Strict: true})
}

// LoadOptions configure LoadContext.
type LoadOptions struct {
	// Parallelism bounds the loader goroutines; <= 1 loads sequentially.
	Parallelism int
	// Strict fails the whole load on the first chunk read error. The
	// default drops unreadable chunks, reporting each through the
	// snapshot's Warnings/OnQuarantine, and merges the rest.
	Strict bool
	// Budget, when non-nil, caps the load: each chunk charges one chunk
	// plus its point count before it is read, and the budget's deadline is
	// checked with the same charge. A refused chunk fails the load under
	// Strict (the error wraps govern.ErrBudgetExceeded) and is otherwise
	// dropped from the merge with a warning — never a quarantine, since
	// its bytes are fine.
	Budget *govern.Budget
}

// LoadContext decodes every chunk of the snapshot under a context.
// Cancellation is observed between chunk loads and returns ctx.Err(); the
// snapshot's counters are final once LoadContext returns.
func LoadContext(ctx context.Context, snap *storage.Snapshot, opts LoadOptions) (*Loaded, error) {
	l := &Loaded{
		chunks:  make([]loadedChunk, len(snap.Chunks)),
		deletes: storage.NewDeleteIndex(snap.Deletes),
	}
	errs := make([]error, len(snap.Chunks))
	tr := obs.TraceOf(ctx)
	load := func(i int) {
		if errs[i] = ctx.Err(); errs[i] != nil {
			return
		}
		if errs[i] = opts.Budget.ChargeChunk(int64(snap.Chunks[i].Meta.Count)); errs[i] != nil {
			return
		}
		var t0 time.Time
		if tr != nil {
			t0 = time.Now()
		}
		data, err := snap.Chunks[i].Load()
		if tr != nil {
			// Chunk index as the task coordinate: a UDF trace shows each
			// load the merge paid, next to the scan tasks.
			tr.Task(i, "load", time.Since(t0))
		}
		l.chunks[i] = loadedChunk{cols: data, ver: snap.Chunks[i].Meta.Version}
		errs[i] = err
	}
	parallelism := opts.Parallelism
	if parallelism > len(snap.Chunks) {
		parallelism = len(snap.Chunks)
	}
	if parallelism <= 1 {
		for i := range snap.Chunks {
			load(i)
			if errs[i] != nil && opts.Strict {
				return nil, errs[i]
			}
		}
	} else {
		var (
			next atomic.Int64
			wg   sync.WaitGroup
		)
		wg.Add(parallelism)
		for w := 0; w < parallelism; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(snap.Chunks) || ctx.Err() != nil {
						return
					}
					load(i)
				}
			}()
		}
		wg.Wait()
	}
	// A cancelled run may have skipped chunks without recording an error;
	// never hand back a silently truncated Loaded.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Resolve errors by chunk index after all workers have joined, so the
	// outcome (and the warning order) is deterministic across schedules.
	for i, err := range errs {
		if err == nil {
			continue
		}
		if opts.Strict {
			return nil, err
		}
		if errors.Is(err, govern.ErrBudgetExceeded) {
			// Nothing is wrong with the chunk's bytes: warn, don't
			// quarantine.
			m := snap.Chunks[i].Meta
			snap.Warnings.Add("chunk %s v%d skipped by budget: %v", m.SeriesID, m.Version, err)
		} else {
			snap.ReportBadChunk(snap.Chunks[i].Meta, err)
		}
		l.chunks[i] = loadedChunk{} // empty series: dropped from the merge
	}
	return l, nil
}

// Iterator positions a merge over the loaded chunks restricted to the
// half-open range r. Iterators are independent: many goroutines may each
// run their own over the same Loaded.
func (l *Loaded) Iterator(r series.TimeRange) *Iterator {
	it := &Iterator{deletes: l.deletes}
	for _, c := range l.chunks {
		in := c.cols.Slice(r)
		if in.Len() == 0 {
			continue
		}
		ts := in.Times()
		deleted := l.deletes.CoversAny(ts[0], ts[len(ts)-1], c.ver)
		it.h = append(it.h, &cursor{ts: ts, vs: in.Values(), ver: c.ver, deleted: deleted})
	}
	heap.Init(&it.h)
	return it
}

// Iterator streams the merged series of a snapshot restricted to a
// half-open time range. Chunks are loaded eagerly at construction, matching
// the baseline's "load all chunks, order points by time" behaviour (§1.1).
type Iterator struct {
	h       cursorHeap
	deletes *storage.DeleteIndex
}

// cursor walks one chunk's columns, already cut to the iterator's range.
type cursor struct {
	ts  []int64
	vs  []float64
	pos int
	ver storage.Version
	// deleted: a later delete covers some of the stretch, so its points
	// need checking. Most cursors need none.
	deleted bool
}

type cursorHeap []*cursor

func (h cursorHeap) Len() int { return len(h) }
func (h cursorHeap) Less(i, j int) bool {
	ti, tj := h[i].ts[h[i].pos], h[j].ts[h[j].pos]
	if ti != tj {
		return ti < tj
	}
	return h[i].ver > h[j].ver // larger version first among equal times
}
func (h cursorHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *cursorHeap) Push(x interface{}) {
	*h = append(*h, x.(*cursor))
}
func (h *cursorHeap) Pop() interface{} {
	old := *h
	n := len(old)
	c := old[n-1]
	*h = old[:n-1]
	return c
}

// NewIterator loads every chunk of the snapshot and positions the merge at
// the first point inside r.
func NewIterator(snap *storage.Snapshot, r series.TimeRange) (*Iterator, error) {
	l, err := Load(snap, 1)
	if err != nil {
		return nil, err
	}
	return l.Iterator(r), nil
}

// Next returns the next latest point in time order, and false when the
// range is exhausted.
func (it *Iterator) Next() (series.Point, bool) {
	for len(it.h) > 0 {
		// The heap orders equal timestamps by descending version, so the
		// top cursor holds the latest write for t.
		top := it.h[0]
		t := top.ts[top.pos]
		winner := series.Point{T: t, V: top.vs[top.pos]}
		winnerVer, checkDeletes := top.ver, top.deleted
		for len(it.h) > 0 && it.h[0].ts[it.h[0].pos] == t {
			c := it.h[0]
			c.pos++
			if c.pos >= len(c.ts) {
				heap.Pop(&it.h)
			} else {
				heap.Fix(&it.h, 0)
			}
		}
		if checkDeletes && it.deletes.Covered(t, winnerVer) {
			continue
		}
		return winner, true
	}
	return series.Point{}, false
}

// Merge materializes the merged series of Definition 2.7 restricted to r.
// It is the reference implementation used by tests and the baseline.
func Merge(snap *storage.Snapshot, r series.TimeRange) (series.Series, error) {
	it, err := NewIterator(snap, r)
	if err != nil {
		return nil, err
	}
	var out series.Series
	for {
		p, ok := it.Next()
		if !ok {
			return out, nil
		}
		out = append(out, p)
	}
}
