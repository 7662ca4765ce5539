// Out-of-order ingestion: build the adversarial LSM states of §4.3-§4.5
// (overlapping chunks, overwrites, range deletes), show that M4-LSM and
// the merge-everything baseline return the same rows, and compare what
// each operator had to read.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"reflect"
	"time"

	"m4lsm"
)

func main() {
	dir, err := os.MkdirTemp("", "m4lsm-ooo-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := m4lsm.Open(dir, m4lsm.WithFlushThreshold(1000))
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// 200k points of a 1 Hz random walk in batches of 1000 (so chunks far
	// outnumber the pixel columns, the paper's regime). A tenth of every
	// batch arrives a batch late, so each chunk's time range overlaps the
	// one before it.
	const id, n, batch = "root.mf03", 200_000, 1000
	rng := rand.New(rand.NewSource(3))
	base := int64(1_700_000_000_000)
	v := 0.0
	var late []m4lsm.Point
	for start := 0; start < n; start += batch {
		pts := late
		late = nil
		for i := start; i < start+batch; i++ {
			v += rng.NormFloat64()
			p := m4lsm.Point{Time: base + int64(i)*1000, Value: v}
			if rng.Intn(10) == 0 {
				late = append(late, p)
			} else {
				pts = append(pts, p)
			}
		}
		if err := db.Write(id, pts...); err != nil {
			log.Fatal(err)
		}
	}
	if err := db.Write(id, late...); err != nil {
		log.Fatal(err)
	}
	// Late corrections overwriting a patch of history, then range deletes.
	for i := 40_000; i < 40_500; i++ {
		if err := db.Write(id, m4lsm.Point{Time: base + int64(i)*1000, Value: rng.NormFloat64() + 50}); err != nil {
			log.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		t := base + rng.Int63n(n*1000)
		if err := db.Delete(id, t, t+10_000); err != nil {
			log.Fatal(err)
		}
	}
	info := db.Info()
	fmt.Printf("storage: %d chunks in %d files (%d out-of-order), %d deletes\n",
		info.Chunks, info.Files, info.UnseqFiles, info.Deletes)

	var res [2]*m4lsm.QueryResult
	for i, op := range []string{"LSM", "UDF"} {
		q := fmt.Sprintf(`SELECT M4(*) FROM %s WHERE time >= %d AND time < %d GROUP BY SPANS(50) USING %s`,
			id, base, base+n*1000, op)
		if res[i], err = db.QueryContext(context.Background(), q); err != nil {
			log.Fatal(err)
		}
	}
	if !reflect.DeepEqual(res[0].Rows, res[1].Rows) {
		log.Fatal("USING LSM and USING UDF returned different rows")
	}
	fmt.Printf("both operators return the same %d rows\n\n", len(res[0].Rows))
	fmt.Printf("%-8s %12s %14s %14s %14s\n", "", "latency", "chunk loads", "partial loads", "points decoded")
	for _, r := range []*m4lsm.QueryResult{res[1], res[0]} {
		fmt.Printf("M4-%-5s %12v %14d %14d %14d\n", r.Operator, r.Elapsed.Round(time.Microsecond),
			r.Stats.ChunksLoaded, r.Stats.TimeBlocksLoaded, r.Stats.PointsDecoded)
	}
	fmt.Printf("\nM4-LSM answered %d of %d chunks from metadata alone (%.0f%% pruned)\n",
		res[0].Stats.ChunksPruned, info.Chunks, 100*float64(res[0].Stats.ChunksPruned)/float64(info.Chunks))
}
