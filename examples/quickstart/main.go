// Quickstart: open a database, write a series (including out-of-order
// points and a range delete), and run an M4 representation query with the
// merge-free operator through the library's one read, DB.QueryContext.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"m4lsm"
)

func main() {
	dir, err := os.MkdirTemp("", "m4lsm-quickstart-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := m4lsm.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// Write a minute of 1 Hz sensor data...
	const seriesID = "root.demo.temperature"
	var pts []m4lsm.Point
	for i := 0; i < 60; i++ {
		pts = append(pts, m4lsm.Point{Time: int64(i * 1000), Value: 20 + float64(i%7)})
	}
	if err := db.Write(seriesID, pts...); err != nil {
		log.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		log.Fatal(err)
	}

	// ...then a late out-of-order correction (overwrites t=30s) and a
	// range delete — the LSM states that make M4 hard.
	if err := db.Write(seriesID, m4lsm.Point{Time: 30_000, Value: 99}); err != nil {
		log.Fatal(err)
	}
	if err := db.Delete(seriesID, 10_000, 14_000); err != nil {
		log.Fatal(err)
	}

	// Represent the minute in 6 pixel columns: one row per non-empty span,
	// the span index followed by the first, last, bottom and top points.
	res, err := db.QueryContext(context.Background(), `SELECT M4(*) FROM root.demo.temperature
		WHERE time >= 0 AND time < 60000 GROUP BY SPANS(6) USING LSM`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Text())
	fmt.Printf("\nspan 3 starts at t=%.0f with the corrected value %g\n", res.Rows[3][1], res.Rows[3][2])
}
