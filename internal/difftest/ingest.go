package difftest

import (
	"fmt"
	"math/rand"

	"m4lsm/internal/lsm"
	"m4lsm/internal/m4"
	"m4lsm/internal/m4lsm"
	"m4lsm/internal/series"
)

// Ingest-equivalence mode: the batched ingestion path (Engine.WriteBatch —
// the bounded queue, one group-committed run per request)
// must be observationally identical to the point-by-point Write path. Twin
// engines consume the same seeded workload in lockstep — engine A writes
// every point individually, engine B ships the same points as multi-series
// batches — interleaved with the same deletes, flushes and close-and-reopen
// cycles (reopen replays B's batch-encoded WAL records). Every M4 query
// shape must then agree bit-for-bit between the twins and with the oracle.
// Values are tie-free (injective t→v), so representative points are forced
// and exact equality is the right assertion.

// IngestCase is one twin-engine workload.
type IngestCase struct {
	Seed   int64
	Oracle Oracle

	a, b         *lsm.Engine
	dirA, dirB   string
	ids          []string
	tMax         int64
	dom          domain
	value        func(*rand.Rand, int64) float64
	BatchEntries int64 // entries shipped through WriteBatch, for vacuity checks
}

// GenerateIngest builds and applies one seeded twin workload.
func GenerateIngest(seed int64, dirA, dirB string) (*IngestCase, error) {
	rng := rand.New(rand.NewSource(seed))
	c := &IngestCase{
		Seed:   seed,
		Oracle: Oracle{},
		dirA:   dirA,
		dirB:   dirB,
		tMax:   int64(200 + rng.Intn(800)),
	}
	c.dom = drawDomain(rng, c.tMax)
	c.value = tieFreeValue(c.tMax)
	nSeries := 1 + rng.Intn(3)
	for s := 0; s < nSeries; s++ {
		c.ids = append(c.ids, fmt.Sprintf("root.g%d", s))
	}
	if err := c.open(); err != nil {
		return nil, err
	}
	steps := 30 + rng.Intn(40)
	for i := 0; i < steps; i++ {
		if err := c.step(rng); err != nil {
			c.Close()
			return nil, fmt.Errorf("seed %d step %d: %w", seed, i, err)
		}
	}
	return c, nil
}

func (c *IngestCase) open() error {
	// A tiny ingest queue on the batched twin so the workload regularly
	// rides the backpressure boundary, not just the happy path.
	a, err := lsm.Open(lsm.Options{Dir: c.dirA, FlushThreshold: 16})
	if err != nil {
		return err
	}
	b, err := lsm.Open(lsm.Options{Dir: c.dirB, FlushThreshold: 16, IngestQueuePoints: 64})
	if err != nil {
		a.Close()
		return err
	}
	c.a, c.b = a, b
	return nil
}

// Close releases both engines, reporting the first error.
func (c *IngestCase) Close() error {
	errA := c.a.Close()
	errB := c.b.Close()
	if errA != nil {
		return errA
	}
	return errB
}

func (c *IngestCase) step(rng *rand.Rand) error {
	switch pick(rng, []int{55, 15, 15, 15}) {
	case 0: // multi-series write burst: A point-by-point, B one batch
		n := 1 + rng.Intn(len(c.ids))
		entries := make([]lsm.BatchEntry, 0, n)
		used := map[string]bool{}
		for len(entries) < n {
			id := c.ids[rng.Intn(len(c.ids))]
			if used[id] {
				continue
			}
			used[id] = true
			pts := make([]series.Point, 1+rng.Intn(10))
			for i := range pts {
				k := rng.Int63n(c.tMax)
				pts[i] = series.Point{T: c.dom.at(k), V: c.value(rng, k)}
			}
			entries = append(entries, lsm.BatchEntry{SeriesID: id, Points: pts})
		}
		for _, e := range entries {
			for _, p := range e.Points {
				if err := c.a.Write(e.SeriesID, p); err != nil {
					return fmt.Errorf("point write: %w", err)
				}
				c.Oracle.write(e.SeriesID, p)
			}
		}
		if err := c.b.WriteBatch(entries...); err != nil {
			return fmt.Errorf("batch write: %w", err)
		}
		c.BatchEntries += int64(len(entries))
	case 1: // range delete on both
		id := c.ids[rng.Intn(len(c.ids))]
		start := c.dom.at(rng.Int63n(c.tMax))
		end := start + rng.Int63n(c.tMax/4+1)*c.dom.step
		if err := c.a.Delete(id, start, end); err != nil {
			return err
		}
		if err := c.b.Delete(id, start, end); err != nil {
			return err
		}
		c.Oracle.delete(id, start, end)
	case 2: // flush both
		if err := c.a.Flush(); err != nil {
			return err
		}
		return c.b.Flush()
	case 3: // close and reopen both: B replays batch-encoded WAL records
		if err := c.Close(); err != nil {
			return err
		}
		return c.open()
	}
	return nil
}

// Check answers every query shape on both twins and requires exact span
// equality twin-to-twin and against the oracle reference.
func (c *IngestCase) Check() error {
	for _, q := range c.dom.queries(c.tMax) {
		for _, id := range c.ids {
			ref, err := m4.ComputeSeries(q, c.Oracle.Merged(id))
			if err != nil {
				return fmt.Errorf("seed %d: oracle %s: %w", c.Seed, id, err)
			}
			snapA, err := c.a.Snapshot(id, q.Range())
			if err != nil {
				return fmt.Errorf("seed %d: snapshot A %s: %w", c.Seed, id, err)
			}
			aggsA, err := m4lsm.Compute(snapA, q)
			if err != nil {
				return fmt.Errorf("seed %d: m4lsm A %s %+v: %w", c.Seed, id, q, err)
			}
			snapB, err := c.b.Snapshot(id, q.Range())
			if err != nil {
				return fmt.Errorf("seed %d: snapshot B %s: %w", c.Seed, id, err)
			}
			aggsB, err := m4lsm.Compute(snapB, q)
			if err != nil {
				return fmt.Errorf("seed %d: m4lsm B %s %+v: %w", c.Seed, id, q, err)
			}
			for i := range ref {
				if aggsA[i] != ref[i] {
					return fmt.Errorf("seed %d: %s %+v span %d: point-by-point %v != oracle %v",
						c.Seed, id, q, i, aggsA[i], ref[i])
				}
				if aggsB[i] != ref[i] {
					return fmt.Errorf("seed %d: %s %+v span %d: batched %v != oracle %v",
						c.Seed, id, q, i, aggsB[i], ref[i])
				}
			}
		}
	}
	return nil
}

// RunIngestDiff generates, checks and closes one twin case; the returned
// error names the seed on any failure. The bench harness reuses it as its
// in-sweep differential cross-check.
func RunIngestDiff(seed int64, dirA, dirB string) error {
	c, err := GenerateIngest(seed, dirA, dirB)
	if err != nil {
		return err
	}
	defer c.Close()
	return c.Check()
}
