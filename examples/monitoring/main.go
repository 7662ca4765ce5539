// Monitoring: a live-ingestion scenario. A simulated sensor fleet writes
// out-of-order readings continuously while a "dashboard" loop runs one M4
// and one aggregate statement over the whole fleet (`FROM root.plant.*`) —
// demonstrating that queries see unflushed memtable data (it appears to the
// snapshot as a high-version in-memory chunk) and that the merge-free
// operator keeps latency flat as history accumulates.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"m4lsm"
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

	db, err := m4lsm.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	rng := rand.New(rand.NewSource(1))
	base := int64(1_700_000_000_000)
	cursors := make([]int64, sensors)
	values := make([]float64, sensors)
	for i := range cursors {
		cursors[i] = base
		values[i] = 20 + float64(i)*5
	}

	ingest := func(sensor int, n int) {
		batch := make([]m4lsm.Point, 0, n)
		for j := 0; j < n; j++ {
			cursors[sensor] += 1000
			values[sensor] += rng.NormFloat64() * 0.5
			batch = append(batch, m4lsm.Point{Time: cursors[sensor], Value: values[sensor]})
		}
		// A slice of every batch arrives late (out of order) to land in
		// the unsequence space.
		cut := len(batch) - len(batch)/10
		id := fmt.Sprintf("root.plant.sensor%02d", sensor)
		if err := db.Write(id, batch[cut:]...); err != nil {
			log.Fatal(err)
		}
		if err := db.Write(id, batch[:cut]...); err != nil {
			log.Fatal(err)
		}
	}
	query := func(sel, from string, w int) *m4lsm.QueryResult {
		res, err := db.QueryContext(context.Background(), fmt.Sprintf(
			`SELECT %s FROM %s WHERE time >= %d AND time < %d GROUP BY SPANS(%d)`, sel, from, base+1, cursors[0]+1, w))
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	for round := 1; round <= rounds; round++ {
		for s := 0; s < sensors; s++ {
			ingest(s, pointsPer)
		}
		fmt.Printf("== round %d: %d points per sensor ingested ==\n", round, round*pointsPer)
		info := db.Info()
		fmt.Printf("storage: %d chunks, %d files (%d unsequence), %d memtable points\n",
			info.Chunks, info.Files, info.UnseqFiles, info.MemtablePoints)

		m4 := query("M4(*)", "root.plant.*", 60)
		aggs := query("COUNT(v), AVG(v), MIN(v), MAX(v)", "root.plant.*", 1)
		for i, s := range aggs.Series {
			if len(s.Rows) != 1 {
				log.Fatalf("%s: no data", s.SeriesID)
			}
			v := s.Rows[0][1:]
			fmt.Printf("%s: count=%.0f avg=%.2f min=%.2f max=%.2f  m4: %d/%d spans, %d chunk loads\n",
				s.SeriesID, v[0], v[1], v[2], v[3], len(m4.Series[i].Rows), m4.SpanCount, m4.Series[i].Stats.ChunksLoaded)
		}
		fmt.Printf("dashboard m4 over %d series in %v\n", len(m4.Series), m4.Elapsed.Round(time.Microsecond))
	}

	// The freshest (unflushed) points must be visible: write a small
	// batch that stays in the memtable and check the M4 last point of
	// the final span is the last written point.
	ingest(0, 3)
	rows := query("LastTime(v), LastValue(v)", "root.plant.sensor00", 10).Rows
	last := rows[len(rows)-1]
	if int64(last[1]) != cursors[0] {
		log.Fatalf("freshest point missing: %v (want t=%d)", last, cursors[0])
	}
	fmt.Printf("\nfreshest unflushed point visible to queries: t=%.0f v=%.2f\n", last[1], last[2])
}
