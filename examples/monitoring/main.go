// Monitoring: a live-ingestion scenario. A simulated sensor fleet writes
// out-of-order readings continuously while a "dashboard" loop runs M4 and
// GroupBy aggregate queries against the same engine — demonstrating that
// queries see unflushed memtable data (it appears to the snapshot as a
// high-version in-memory chunk) and that the merge-free operator keeps
// latency flat as history accumulates.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"m4lsm/internal/groupby"
	"m4lsm/internal/lsm"
	"m4lsm/internal/m4"
	"m4lsm/internal/m4lsm"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
	"m4lsm/internal/viz"
)

const (
	sensors   = 4
	pointsPer = 30_000 // per sensor per round
	rounds    = 5
)

func main() {
	dir, err := os.MkdirTemp("", "m4lsm-monitoring-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	engine, err := lsm.Open(lsm.Options{Dir: dir, FlushThreshold: 1000})
	if err != nil {
		log.Fatal(err)
	}
	defer engine.Close()

	rng := rand.New(rand.NewSource(1))
	base := int64(1_700_000_000_000)
	cursors := make([]int64, sensors)
	values := make([]float64, sensors)
	for i := range cursors {
		cursors[i] = base
		values[i] = 20 + float64(i)*5
	}

	ingest := func(sensor int, n int) {
		batch := make([]series.Point, 0, n)
		for j := 0; j < n; j++ {
			cursors[sensor] += 1000
			values[sensor] += rng.NormFloat64() * 0.5
			batch = append(batch, series.Point{T: cursors[sensor], V: values[sensor]})
		}
		// A slice of every batch arrives late (out of order) to land in
		// the unsequence space.
		cut := len(batch) - len(batch)/10
		id := sensorID(sensor)
		if err := engine.Write(id, batch[cut:]...); err != nil {
			log.Fatal(err)
		}
		if err := engine.Write(id, batch[:cut]...); err != nil {
			log.Fatal(err)
		}
	}

	for round := 1; round <= rounds; round++ {
		for s := 0; s < sensors; s++ {
			ingest(s, pointsPer)
		}
		fmt.Printf("== round %d: %d points per sensor ingested ==\n", round, round*pointsPer)
		info := engine.Info()
		fmt.Printf("storage: %d chunks, %d files (%d unsequence), %d memtable points\n",
			info.Chunks, info.Files, info.UnseqFiles, info.MemtablePoints)

		for s := 0; s < sensors; s++ {
			id := sensorID(s)
			q := m4.Query{Tqs: base + 1, Tqe: cursors[s] + 1, W: 60}
			snap, err := engine.Snapshot(id, q.Range())
			if err != nil {
				log.Fatal(err)
			}
			start := time.Now()
			aggs, err := m4lsm.Compute(snap, q)
			if err != nil {
				log.Fatal(err)
			}
			m4Latency := time.Since(start)

			snap2, err := engine.Snapshot(id, q.Range())
			if err != nil {
				log.Fatal(err)
			}
			rows, err := groupby.Compute(context.Background(), []*storage.Snapshot{snap2}, m4.Query{Tqs: q.Tqs, Tqe: q.Tqe, W: 1},
				[]groupby.Func{groupby.Count, groupby.Avg, groupby.Min, groupby.Max}, m4lsm.Options{})
			if err != nil {
				log.Fatal(err)
			}
			if len(rows[0]) != 1 {
				log.Fatalf("sensor %s: no data", id)
			}
			v := rows[0][0].Values
			fmt.Printf("%s: count=%.0f avg=%.2f min=%.2f max=%.2f  m4(%dpx)=%v (%d/%d chunks pruned)\n",
				id, v[0], v[1], v[2], v[3], q.W, m4Latency.Round(time.Microsecond),
				snap.Stats.ChunksPruned, len(snap.Chunks))
			if round == rounds && s == 0 {
				reduced := m4.Points(aggs)
				vp := viz.ViewportFor(reduced, q.Tqs, q.Tqe)
				fmt.Print(viz.Rasterize(reduced, vp, 60, 10).ASCII())
			}
		}
	}

	// The freshest (unflushed) points must be visible: write a small
	// batch that stays in the memtable and check the M4 last point of
	// the final span equals the last written value.
	ingest(0, 3)
	id := sensorID(0)
	q := m4.Query{Tqs: base + 1, Tqe: cursors[0] + 1, W: 10}
	snap, _ := engine.Snapshot(id, q.Range())
	aggs, err := m4lsm.Compute(snap, q)
	if err != nil {
		log.Fatal(err)
	}
	last := aggs[len(aggs)-1]
	if last.Empty || last.Last.T != cursors[0] {
		log.Fatalf("freshest point missing: %v (want t=%d)", last, cursors[0])
	}
	fmt.Printf("\nfreshest unflushed point visible to queries: t=%d v=%.2f\n",
		last.Last.T, last.Last.V)
}

func sensorID(i int) string { return fmt.Sprintf("root.plant.sensor%02d", i) }
