package mergeread

import (
	"context"
	"time"

	"m4lsm/internal/obs"
	"m4lsm/internal/storage"
)

// Clock is one operator's instrumentation over one statement, shared by the
// merge-all read and the M4-LSM batch: the trace's phases and tasks, the
// operator metrics, and each series' share of the cost counters. The nil
// *Clock — what StartClock returns when nothing is measured — discards
// everything, so an unmeasured query pays one nil check per call.
type Clock struct {
	tr    *obs.Trace
	met   *obs.OperatorMetrics
	start time.Time
	total storage.Stats // every series' counters, summed for the trace
}

// StartClock arms the clock of the operator labelled label (the op label of
// its metrics) for one statement, or returns nil when the context carries
// no trace and reg is nil.
func StartClock(ctx context.Context, reg *obs.Registry, label string) *Clock {
	tr, met := obs.TraceOf(ctx), obs.NewOperatorMetrics(reg, label)
	if tr == nil && met == nil {
		return nil
	}
	return &Clock{tr: tr, met: met, start: time.Now()}
}

// Now returns the current time for a later Phase or Task, or the zero time
// when the clock is off.
func (c *Clock) Now() time.Time {
	if c == nil {
		return time.Time{}
	}
	return time.Now()
}

// Phase records the stage that ran since `since` in the trace and returns
// the current time, the start of the next stage.
func (c *Clock) Phase(name string, since time.Time) time.Time {
	if c == nil {
		return time.Time{}
	}
	now := time.Now()
	c.tr.Phase(name, now.Sub(since))
	return now
}

// Task records one worker-pool task that began at since, under the
// coordinate coord (a span, chunk or series index) and name.
func (c *Clock) Task(coord int, name string, since time.Time) {
	if c == nil {
		return
	}
	d := time.Since(since)
	c.tr.Task(coord, name, d)
	c.met.RecordTask(d)
}

// TaskTo records one task like Task, except that its duration joins the
// worker's tally t instead of the task histogram: a worker running many
// short tasks publishes them with one FlushTasks once its pool has joined.
// The trace still gets every task as it ends.
func (c *Clock) TaskTo(t *obs.Tally, coord int, name string, since time.Time) {
	if c == nil {
		return
	}
	d := time.Since(since)
	c.tr.Task(coord, name, d)
	if c.met != nil {
		t.Observe(d.Seconds())
	}
}

// FlushTasks publishes a worker's tally of task durations into the
// operator's task histogram and empties it.
func (c *Clock) FlushTasks(t *obs.Tally) {
	if c == nil {
		return
	}
	c.met.RecordTasks(t)
}

// Before returns a series' counters as its share of the statement starts,
// the base Series subtracts.
func (c *Clock) Before(s *storage.Stats) storage.Stats {
	if c == nil || s == nil {
		return storage.Stats{}
	}
	return s.Load()
}

// Series records one series' completed share: one query in the metrics,
// timed from the statement's start, with the counters s gained since
// before. With a trace armed the counters join the statement's total.
func (c *Clock) Series(s *storage.Stats, before storage.Stats) {
	if c == nil {
		return
	}
	var d storage.Stats
	if s != nil {
		d = s.Load().Sub(before)
	}
	c.met.RecordQuery(time.Since(c.start), d.ChunksLoaded, d.ChunksPruned,
		d.TimeBlocksLoaded, d.PointsDecoded, d.CacheHits)
	c.met.RecordPyramid(d.PyramidSpans, d.PyramidCells, d.PyramidFallbackSpans)
	if c.tr != nil {
		c.total.Add(d)
	}
}

// Done hands the statement's summed counters to the trace.
func (c *Clock) Done() {
	if c == nil || c.tr == nil {
		return
	}
	c.tr.SetCounters(c.total.Load().Map())
}
