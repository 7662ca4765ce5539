// Package difftest is a differential correctness harness for the storage
// engine and both M4 operators: a seed-reproducible random workload runs
// against the real engine and against a naive in-memory oracle (a
// map[timestamp]value per series — latest write wins, deletes remove the
// range), then every M4 query shape is answered four ways — M4-LSM (which
// consults the rollup pyramid where cells are valid), M4-LSM with the
// pyramid disabled, M4-UDF, and the reference scan over the oracle's merged
// series — and the answers must agree span by span. A failing case prints
// its seed, so one integer reproduces it.
//
// The generator deliberately concentrates probability mass where the
// engine's invariants live: out-of-order writes, same-timestamp overwrites
// (version resolution), range deletes over flushed and unflushed data, and
// interleaved Flush / Compact / Close-and-reopen (WAL replay).
package difftest

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"m4lsm/internal/govern"
	"m4lsm/internal/lsm"
	"m4lsm/internal/m4"
	"m4lsm/internal/m4lsm"
	"m4lsm/internal/m4udf"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
	"m4lsm/internal/viz"
)

// Oracle is the naive model: per series, the latest value at each
// timestamp after all writes and deletes.
type Oracle map[string]map[int64]float64

// write applies a latest-wins insert.
func (o Oracle) write(id string, p series.Point) {
	m := o[id]
	if m == nil {
		m = map[int64]float64{}
		o[id] = m
	}
	m[p.T] = p.V
}

// delete removes the closed range [start, end].
func (o Oracle) delete(id string, start, end int64) {
	for t := range o[id] {
		if t >= start && t <= end {
			delete(o[id], t)
		}
	}
}

// Merged returns the oracle's view of a series, sorted by time.
func (o Oracle) Merged(id string) series.Series {
	m := o[id]
	out := make(series.Series, 0, len(m))
	for t, v := range m {
		out = append(out, series.Point{T: t, V: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}

// Case is one generated workload: the engine directory stays on disk for
// the case's lifetime so Close-and-reopen steps can replay the WAL.
type Case struct {
	Seed   int64
	Oracle Oracle

	// PyramidSpans counts query spans Check answered from rollup-pyramid
	// cells, summed over every M4-LSM run. The differential suite asserts
	// the total is nonzero: a pyramid that silently never engages would
	// make every pyramid check vacuous.
	PyramidSpans int64

	engine *lsm.Engine
	dir    string
	ids    []string
	// Points sit at tMax positions k in [0, tMax), placed in the time
	// domain at dom.at(k).
	tMax int64
	dom  domain
	// value draws the value for a write at position k. The default is
	// coarsely quantized (ties stress the operators' representative-point
	// selection); GenerateRepr swaps in an injective k→v mapping so
	// bit-for-bit representation comparisons are well-defined.
	value func(rng *rand.Rand, k int64) float64
}

// domain places a case's point positions in the int64 time domain:
// position k is the timestamp base + k·step. Each case draws its own, so
// the harness covers the whole domain: timestamps from zero, epoch
// milliseconds, epoch nanoseconds, negative ones, and ones near ±2^62,
// with steps from one tick to about a millisecond in nanoseconds.
type domain struct{ base, step int64 }

// drawDomain draws the domain of a case whose positions run to 2·tMax, the
// end of its widest query window.
func drawDomain(rng *rand.Rand, tMax int64) domain {
	steps := []int64{1, 1, 3, 1000, 1_000_003}
	d := domain{step: steps[rng.Intn(len(steps))]}
	switch rng.Intn(5) {
	case 1: // epoch milliseconds
		d.base = 1_600_000_000_000 + rng.Int63n(1e11)
	case 2: // epoch nanoseconds, far above 2^53
		d.base = 1_600_000_000_000_000_000 + rng.Int63n(1e17)
	case 3: // negative, sometimes straddling zero
		d.base = -rng.Int63n(1<<40) - tMax*d.step/2
	case 4: // the domain's ends
		d.base = -1 << 62
		if rng.Intn(2) == 0 {
			d.base = 1<<62 - 2*tMax*d.step
		}
	}
	return d
}

// at is the timestamp of position k.
func (d domain) at(k int64) int64 { return d.base + k*d.step }

// index is the position of timestamp t.
func (d domain) index(t int64) int64 { return (t - d.base) / d.step }

// queries are the query shapes every check answers: the full range, a
// strict subrange, a range extending past the data, w both smaller and
// larger than the point count (zero-width spans when the step is one
// tick), and the whole time domain around the data: a window MaxInt64
// wide, the widest a query can be.
func (d domain) queries(tMax int64) []m4.Query {
	mid := d.at(tMax / 2)
	return []m4.Query{
		{Tqs: d.at(0), Tqe: d.at(tMax), W: 7},
		{Tqs: d.at(0), Tqe: d.at(tMax), W: 31},
		{Tqs: d.at(tMax / 4), Tqe: d.at(tMax / 2), W: 5},
		{Tqs: d.at(tMax / 3), Tqe: d.at(2 * tMax), W: 13},
		{Tqs: d.at(0), Tqe: d.at(tMax), W: int(tMax) * 2},
		{Tqs: mid - 1<<62, Tqe: mid + (1<<62 - 1), W: 17},
	}
}

// opKind is the per-step action distribution.
const (
	opWrite = iota
	opOverwrite
	opDelete
	opFlush
	opCompact
	opReopen
)

// Generate builds a random workload from seed and applies it to a fresh
// engine in dir and to the oracle. Steps interleave out-of-order writes,
// same-timestamp overwrites, range deletes, flushes, compactions and full
// close-and-reopen cycles (WAL replay).
func Generate(seed int64, dir string) (*Case, error) {
	return generate(seed, dir, false)
}

func generate(seed int64, dir string, tieFree bool) (*Case, error) {
	rng := rand.New(rand.NewSource(seed))
	c := &Case{
		Seed:   seed,
		Oracle: Oracle{},
		dir:    dir,
		tMax:   int64(200 + rng.Intn(800)),
		value: func(rng *rand.Rand, k int64) float64 {
			return float64(rng.Intn(1000)) / 10
		},
	}
	c.dom = drawDomain(rng, c.tMax)
	if tieFree {
		c.value = tieFreeValue(c.tMax)
	}
	nSeries := 1 + rng.Intn(4)
	for s := 0; s < nSeries; s++ {
		c.ids = append(c.ids, fmt.Sprintf("root.d%d", s))
	}
	if err := c.open(); err != nil {
		return nil, err
	}

	steps := 40 + rng.Intn(60)
	for i := 0; i < steps; i++ {
		if err := c.step(rng); err != nil {
			c.engine.Close()
			return nil, fmt.Errorf("seed %d step %d: %w", seed, i, err)
		}
	}
	return c, nil
}

func (c *Case) open() error {
	e, err := lsm.Open(lsm.Options{
		Dir:            c.dir,
		FlushThreshold: 16,
	})
	if err != nil {
		return err
	}
	c.engine = e
	return nil
}

// Close releases the engine.
func (c *Case) Close() error { return c.engine.Close() }

func (c *Case) step(rng *rand.Rand) error {
	id := c.ids[rng.Intn(len(c.ids))]
	switch pick(rng, []int{40, 15, 15, 12, 8, 10}) {
	case opWrite:
		// A burst of out-of-order writes.
		n := 1 + rng.Intn(12)
		pts := make([]series.Point, n)
		for i := range pts {
			k := rng.Int63n(c.tMax)
			pts[i] = series.Point{T: c.dom.at(k), V: c.value(rng, k)}
		}
		if err := c.engine.Write(id, pts...); err != nil {
			return err
		}
		for _, p := range pts {
			c.Oracle.write(id, p)
		}
	case opOverwrite:
		// Rewrite timestamps the series already holds: latest wins.
		existing := c.Oracle.Merged(id)
		if len(existing) == 0 {
			return nil
		}
		n := 1 + rng.Intn(4)
		pts := make([]series.Point, 0, n)
		for i := 0; i < n; i++ {
			t := existing[rng.Intn(len(existing))].T
			pts = append(pts, series.Point{T: t, V: c.value(rng, c.dom.index(t))})
		}
		if err := c.engine.Write(id, pts...); err != nil {
			return err
		}
		for _, p := range pts {
			c.Oracle.write(id, p)
		}
	case opDelete:
		start := c.dom.at(rng.Int63n(c.tMax))
		end := start + rng.Int63n(c.tMax/4+1)*c.dom.step
		if err := c.engine.Delete(id, start, end); err != nil {
			return err
		}
		c.Oracle.delete(id, start, end)
	case opFlush:
		return c.engine.Flush()
	case opCompact:
		return c.engine.Compact()
	case opReopen:
		if err := c.engine.Close(); err != nil {
			return err
		}
		return c.open()
	}
	return nil
}

// pick draws an index from a weight table.
func pick(rng *rand.Rand, weights []int) int {
	total := 0
	for _, w := range weights {
		total += w
	}
	n := rng.Intn(total)
	for i, w := range weights {
		if n < w {
			return i
		}
		n -= w
	}
	return len(weights) - 1
}

// Check verifies the pyramid's structural invariants, then answers every
// shape of domain.queries four ways per series and fails on the first
// disagreement. It also cross-checks the batched multi-series
// path against per-series queries, and rasterizes the M4 reduction against
// the oracle's full merged series at a small canvas to assert the paper's
// pixel-equivalence guarantee.
func (c *Case) Check() error {
	queries := c.dom.queries(c.tMax)
	for _, id := range c.ids {
		if err := c.engine.PyrCheckInvariants(id); err != nil {
			return fmt.Errorf("seed %d: pyramid invariants: %w", c.Seed, err)
		}
	}
	for _, q := range queries {
		if err := q.Validate(); err != nil {
			return fmt.Errorf("seed %d: bad generated query %+v: %w", c.Seed, q, err)
		}
		snaps := make([]*storage.Snapshot, len(c.ids))
		for i, id := range c.ids {
			snap, err := c.engine.Snapshot(id, q.Range())
			if err != nil {
				return fmt.Errorf("seed %d: snapshot %s: %w", c.Seed, id, err)
			}
			snaps[i] = snap
		}
		multi, err := m4lsm.ComputeMultiContext(context.Background(), snaps, q, m4lsm.Options{})
		if err != nil {
			return fmt.Errorf("seed %d: m4lsm multi %+v: %w", c.Seed, q, err)
		}
		for si, id := range c.ids {
			ref, err := m4.ComputeSeries(q, c.Oracle.Merged(id))
			if err != nil {
				return fmt.Errorf("seed %d: oracle %s: %w", c.Seed, id, err)
			}
			snap, err := c.engine.Snapshot(id, q.Range())
			if err != nil {
				return err
			}
			lsmAggs, err := m4lsm.Compute(snap, q)
			if err != nil {
				return fmt.Errorf("seed %d: m4lsm %s %+v: %w", c.Seed, id, q, err)
			}
			c.PyramidSpans += snap.Stats.PyramidSpans
			snap, err = c.engine.Snapshot(id, q.Range())
			if err != nil {
				return err
			}
			snap.Pyramid = nil // the span×G path alone
			noPyr, err := m4lsm.Compute(snap, q)
			if err != nil {
				return fmt.Errorf("seed %d: m4lsm (pyramid off) %s %+v: %w", c.Seed, id, q, err)
			}
			snap, err = c.engine.Snapshot(id, q.Range())
			if err != nil {
				return err
			}
			udfAggs, err := m4udf.Compute(snap, q)
			if err != nil {
				return fmt.Errorf("seed %d: m4udf %s %+v: %w", c.Seed, id, q, err)
			}
			for i := range ref {
				if !m4.Equivalent(lsmAggs[i], ref[i]) {
					return fmt.Errorf("seed %d: %s %+v span %d: m4lsm %v != oracle %v",
						c.Seed, id, q, i, lsmAggs[i], ref[i])
				}
				if !m4.Equivalent(noPyr[i], ref[i]) {
					return fmt.Errorf("seed %d: %s %+v span %d: m4lsm (pyramid off) %v != oracle %v",
						c.Seed, id, q, i, noPyr[i], ref[i])
				}
				if !m4.Equivalent(udfAggs[i], ref[i]) {
					return fmt.Errorf("seed %d: %s %+v span %d: m4udf %v != oracle %v",
						c.Seed, id, q, i, udfAggs[i], ref[i])
				}
				if !m4.Equivalent(multi[si][i], ref[i]) {
					return fmt.Errorf("seed %d: %s %+v span %d: batched %v != oracle %v",
						c.Seed, id, q, i, multi[si][i], ref[i])
				}
			}
		}
	}
	if err := c.checkBudget(); err != nil {
		return err
	}
	return c.checkPixels()
}

// checkBudget asserts budget equivalence: a query run under a generous
// per-query budget (limits far above what the workload can consume) must
// return bit-for-bit the unbudgeted answer in both operators, with no
// degradation warnings — budget accounting may never change a result that
// fits the budget.
func (c *Case) checkBudget() error {
	q := m4.Query{Tqs: c.dom.at(0), Tqe: c.dom.at(c.tMax), W: 31}
	generous := govern.Limits{MaxChunks: 1 << 30, MaxPoints: 1 << 40, Timeout: time.Hour}
	// Ties in value may resolve to different (equally valid) representative
	// timestamps between the two operators, so each operator is compared
	// against its own unbudgeted run, not against the other's.
	ops := []struct {
		name string
		run  func(*storage.Snapshot, *govern.Budget) ([]m4.Aggregate, error)
	}{
		{"m4lsm", func(s *storage.Snapshot, b *govern.Budget) ([]m4.Aggregate, error) {
			return m4lsm.ComputeContext(context.Background(), s, q, m4lsm.Options{Budget: b})
		}},
		{"m4udf", func(s *storage.Snapshot, b *govern.Budget) ([]m4.Aggregate, error) {
			return m4udf.ComputeContext(context.Background(), s, q, m4udf.Options{Budget: b})
		}},
	}
	for _, id := range c.ids {
		for _, op := range ops {
			snap, err := c.engine.Snapshot(id, q.Range())
			if err != nil {
				return err
			}
			plain, err := op.run(snap, nil)
			if err != nil {
				return err
			}
			snap, err = c.engine.Snapshot(id, q.Range())
			if err != nil {
				return err
			}
			before := snap.Warnings.Len()
			budgeted, err := op.run(snap, govern.NewBudget(generous))
			if err != nil {
				return fmt.Errorf("seed %d: %s %s under generous budget: %w", c.Seed, op.name, id, err)
			}
			if snap.Warnings.Len() != before {
				return fmt.Errorf("seed %d: %s %s: generous budget produced warnings", c.Seed, op.name, id)
			}
			if len(budgeted) != len(plain) {
				return fmt.Errorf("seed %d: %s %s: budgeted span count %d != %d", c.Seed, op.name, id, len(budgeted), len(plain))
			}
			for i := range plain {
				if budgeted[i] != plain[i] {
					return fmt.Errorf("seed %d: %s %s span %d: budgeted %v != unbudgeted %v",
						c.Seed, op.name, id, i, budgeted[i], plain[i])
				}
			}
		}
	}
	return nil
}

// checkPixels asserts the error-free visualization guarantee on this case:
// rasterizing the M4 reduction must light exactly the pixels of
// rasterizing the oracle's full merged series.
func (c *Case) checkPixels() error {
	const w, h = 41, 17
	q := m4.Query{Tqs: c.dom.at(0), Tqe: c.dom.at(c.tMax), W: w}
	for _, id := range c.ids {
		full := c.Oracle.Merged(id)
		snap, err := c.engine.Snapshot(id, q.Range())
		if err != nil {
			return err
		}
		aggs, err := m4lsm.Compute(snap, q)
		if err != nil {
			return err
		}
		reduced := m4.Points(aggs)
		vp := viz.ViewportFor(full, q.Tqs, q.Tqe)
		a := viz.Rasterize(full, vp, w, h)
		b := viz.Rasterize(reduced, vp, w, h)
		if d := viz.Diff(a, b); d != 0 {
			return fmt.Errorf("seed %d: %s: %d pixels differ between full and M4-reduced render",
				c.Seed, id, d)
		}
	}
	return nil
}

// Run generates, checks and closes one case; the returned error names the
// seed on any failure.
func Run(seed int64, dir string) error {
	c, err := Generate(seed, dir)
	if err != nil {
		return err
	}
	defer c.Close()
	return c.Check()
}
