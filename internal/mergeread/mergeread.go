// Package mergeread implements the MergeReader of Fig. 15: it loads every
// chunk of a snapshot and streams the merged ("latest") time series of
// Definition 2.7 in time order, resolving overwrites by version number and
// applying range deletes.
//
// This is exactly the work the M4-LSM operator avoids. Read is the one
// merge-all read built on it: the M4-UDF baseline, LTTB and GROUP BY's
// count/sum/avg scan are each a fold over it.
package mergeread

import (
	"container/heap"
	"context"
	"errors"
	"fmt"

	"m4lsm/internal/govern"
	"m4lsm/internal/obs"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
)

// Loaded holds every chunk of a snapshot decoded exactly once, ready to
// feed any number of iterators: GROUP BY, LTTB, the UDF baseline and
// compaction each fold over it.
type Loaded struct {
	chunks  []loadedChunk
	deletes *storage.DeleteIndex
}

type loadedChunk struct {
	cols series.Columns
	ver  storage.Version
}

// Options configure a merge-all read.
type Options struct {
	// Strict fails the read on the first unreadable chunk. The default
	// drops it, reporting it through the snapshot's Warnings/OnQuarantine,
	// and merges the rest.
	Strict bool
	// Metrics, when non-nil, receives the operator's query counters and
	// latency histograms under the read's op label.
	Metrics *obs.Registry
	// Budget, when non-nil, caps the load: each chunk charges one chunk
	// plus its point count before it is read, and the budget's deadline is
	// checked with the same charge. A refused chunk fails the read under
	// Strict (the error wraps govern.ErrBudgetExceeded) and is otherwise
	// dropped from the merge with a warning — never a quarantine, since
	// its bytes are fine.
	Budget *govern.Budget
}

// A Fold turns one series' loaded chunks into its form's output for batch
// position i; c times its tasks (c is nil, and free, when nothing is
// measured).
type Fold func(i int, l *Loaded, c *Clock) error

// Read is the one merge-all read, the shape of the M4-UDF baseline
// (Fig. 2(b)) and of every operator that needs each surviving point: per
// series, in order, load every chunk once under ctx, Strict and Budget,
// then hand the loaded chunks to fold. label names the operator in metrics
// and traces; every series records its counters there, and a multi-series
// error names its series. Cancellation is observed between chunk loads and
// after each fold, and returns ctx.Err(); the snapshots' counters are
// final once Read returns.
func Read(ctx context.Context, snaps []*storage.Snapshot, label string, opts Options, fold Fold) error {
	if len(snaps) == 0 {
		return nil
	}
	c := StartClock(ctx, opts.Metrics, label)
	for i, snap := range snaps {
		before := c.Before(snap.Stats)
		l, err := load(ctx, snap, opts, c)
		if err == nil {
			err = fold(i, l, c)
		}
		// Every fold copies out the points it keeps: the series' columns
		// go back to their sources.
		for ci, lc := range l.chunks {
			snap.Chunks[ci].Recycle(lc.cols.Times(), lc.cols.Values())
		}
		if err == nil {
			err = ctx.Err()
		}
		if err != nil {
			return SeriesError(len(snaps), snap.SeriesID, err)
		}
		c.Series(snap.Stats, before)
	}
	c.Done()
	return nil
}

// SeriesError names the series of a failed share of a multi-series batch:
// the error a batch of one would return, prefixed with `series "id": `.
// Every batched operator reports its failures in this one wording.
func SeriesError(batch int, id string, err error) error {
	if batch == 1 {
		return err
	}
	return fmt.Errorf("series %q: %w", id, err)
}

// load decodes every chunk of one snapshot in order and records the "load"
// phase. Read is its only caller. The Loaded comes back with the error
// too, holding what was loaded before the read failed, so that Read
// recycles it. A chunk that fails leniently is reported and dropped from
// the merge.
func load(ctx context.Context, snap *storage.Snapshot, opts Options, c *Clock) (*Loaded, error) {
	t0 := c.Now()
	l := &Loaded{
		chunks:  make([]loadedChunk, len(snap.Chunks)),
		deletes: storage.NewDeleteIndex(snap.Deletes),
	}
	for i, ref := range snap.Chunks {
		if err := ctx.Err(); err != nil {
			return l, err
		}
		err := opts.Budget.ChargeChunk(int64(ref.Meta.Count))
		if err == nil {
			t := c.Now()
			l.chunks[i] = loadedChunk{ver: ref.Meta.Version}
			l.chunks[i].cols, err = ref.Load(snap.Stats)
			// The chunk index is the task coordinate: a trace shows each
			// load the merge paid, next to the fold's tasks.
			c.Task(i, "load", t)
		}
		switch {
		case err == nil:
		case opts.Strict:
			return l, err
		case errors.Is(err, govern.ErrBudgetExceeded):
			// Nothing is wrong with the chunk's bytes: warn, don't
			// quarantine.
			snap.Warnings.Add("chunk %s v%d skipped by budget: %v", ref.Meta.SeriesID, ref.Meta.Version, err)
			l.chunks[i] = loadedChunk{} // empty series: dropped from the merge
		default:
			snap.ReportBadChunk(ref.Meta, err)
			l.chunks[i] = loadedChunk{}
		}
	}
	c.Phase("load", t0)
	return l, nil
}

// Series materializes the merged series restricted to r.
func (l *Loaded) Series(r series.TimeRange) series.Series {
	var out series.Series
	it := l.Iterator(r)
	for p, ok := it.Next(); ok; p, ok = it.Next() {
		out = append(out, p)
	}
	return out
}

// Iterator positions a merge over the loaded chunks restricted to the
// half-open range r. Iterators are independent: a fold may run several
// over the same Loaded.
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
// half-open time range. Its chunks were all loaded before it, matching the
// baseline's "load all chunks, order points by time" behaviour (§1.1).
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

// Merge materializes the merged series of Definition 2.7 restricted to r:
// a strict, sequential merge-all read of one snapshot. It is the reference
// the tests use and the engine's pyramid rebuild runs on. (Compaction reads
// leniently through Read, so that it can quarantine a corrupt chunk.)
func Merge(snap *storage.Snapshot, r series.TimeRange) (series.Series, error) {
	var out series.Series
	err := Read(context.Background(), []*storage.Snapshot{snap}, "", Options{Strict: true},
		func(_ int, l *Loaded, _ *Clock) error {
			out = l.Series(r)
			return nil
		})
	return out, err
}
