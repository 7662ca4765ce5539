package obs

import "time"

// OperatorMetrics are the per-operator query instruments, labelled by
// operator ("lsm", "udf", "minmax", "lttb", "minmaxlttb", "groupby") so
// every operator exposes the same names and dashboards can compare them
// directly. All methods are safe on
// the nil *OperatorMetrics, the fast path when observability is off.
type OperatorMetrics struct {
	queries       *Counter
	querySeconds  *Histogram
	taskSeconds   *Histogram
	chunksLoaded  *Counter
	chunksPruned  *Counter
	timeBlocks    *Counter
	pointsDecoded *Counter
	pyramidSpans  *Counter
	pyramidCells  *Counter
	pyramidFalls  *Counter
}

// NewOperatorMetrics resolves the operator's instruments from the
// registry; a nil registry yields a nil (inert) OperatorMetrics. Every query
// asks, so the set is resolved once per operator label and kept: instruments
// are never removed, so it stays what a fresh resolution would return.
func NewOperatorMetrics(r *Registry, op string) *OperatorMetrics {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	m := r.ops[op]
	r.mu.Unlock()
	if m != nil {
		return m
	}
	l := []string{"op", op}
	m = &OperatorMetrics{
		queries:       r.Counter("m4_queries_total", l...),
		querySeconds:  r.Histogram("m4_query_seconds", l...),
		taskSeconds:   r.Histogram("m4_task_seconds", l...),
		chunksLoaded:  r.Counter("m4_chunks_loaded_total", l...),
		chunksPruned:  r.Counter("m4_chunks_pruned_total", l...),
		timeBlocks:    r.Counter("m4_time_blocks_loaded_total", l...),
		pointsDecoded: r.Counter("m4_points_decoded_total", l...),
		pyramidSpans:  r.Counter("m4_pyramid_spans_total", l...),
		pyramidCells:  r.Counter("m4_pyramid_cells_total", l...),
		pyramidFalls:  r.Counter("m4_pyramid_fallback_spans_total", l...),
	}
	r.mu.Lock()
	r.ops[op] = m
	r.mu.Unlock()
	return m
}

// RecordPyramid accumulates one query's rollup-pyramid attribution: spans
// answered from cells, cells consulted, and spans that fell back to chunks.
func (m *OperatorMetrics) RecordPyramid(spans, cells, fallbacks int64) {
	if m == nil {
		return
	}
	m.pyramidSpans.Add(spans)
	m.pyramidCells.Add(cells)
	m.pyramidFalls.Add(fallbacks)
}

// RecordTask observes one operator task's duration.
func (m *OperatorMetrics) RecordTask(d time.Duration) {
	if m == nil {
		return
	}
	m.taskSeconds.Observe(d.Seconds())
}

// RecordTasks publishes a batch of task durations, in seconds,
// and empties it: RecordTask for each of them, at the cost of one flush.
func (m *OperatorMetrics) RecordTasks(t *Tally) {
	if m == nil {
		return
	}
	m.taskSeconds.Flush(t)
}

// RecordQuery accumulates one completed query's latency and I/O counters.
func (m *OperatorMetrics) RecordQuery(elapsed time.Duration, chunksLoaded, chunksPruned, timeBlocks, pointsDecoded int64) {
	if m == nil {
		return
	}
	m.queries.Inc()
	m.querySeconds.Observe(elapsed.Seconds())
	m.chunksLoaded.Add(chunksLoaded)
	m.chunksPruned.Add(chunksPruned)
	m.timeBlocks.Add(timeBlocks)
	m.pointsDecoded.Add(pointsDecoded)
}
