package m4lsm_test

import (
	"context"
	"fmt"
	"log"
	"os"

	"m4lsm"
)

// Example shows the complete write-then-visualize flow: out-of-order
// writes, a range delete, and an M4 representation query.
func Example() {
	dir, _ := os.MkdirTemp("", "m4lsm-example-")
	defer os.RemoveAll(dir)

	db, err := m4lsm.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	db.Write("root.demo",
		m4lsm.Point{Time: 30, Value: 7}, // out of order
		m4lsm.Point{Time: 10, Value: 2},
		m4lsm.Point{Time: 20, Value: 5},
		m4lsm.Point{Time: 40, Value: 1},
	)
	db.Delete("root.demo", 40, 40)

	res, err := db.QueryContext(context.Background(), `SELECT M4(*) FROM root.demo
		WHERE time >= 0 AND time < 50 GROUP BY SPANS(1)`)
	if err != nil {
		log.Fatal(err)
	}
	// One row per non-empty span: the span index, then time and value of
	// the first, last, bottom and top points.
	r := res.Rows[0]
	fmt.Printf("first=(%.0f,%g) last=(%.0f,%g) bottom=%g top=%g\n", r[1], r[2], r[3], r[4], r[6], r[8])
	// Output:
	// first=(10,2) last=(30,7) bottom=2 top=7
}

// ExampleDB_QueryContext projects single M4 columns (paper, Appendix A.1).
func ExampleDB_QueryContext() {
	dir, _ := os.MkdirTemp("", "m4lsm-example-")
	defer os.RemoveAll(dir)

	db, err := m4lsm.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	for i := int64(0); i < 8; i++ {
		db.Write("s", m4lsm.Point{Time: i * 10, Value: float64(i % 3)})
	}
	res, err := db.QueryContext(context.Background(), `SELECT FirstValue(s), TopValue(s) FROM s
		WHERE time >= 0 AND time < 80 GROUP BY SPANS(2) USING LSM`)
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.Rows {
		fmt.Printf("span %.0f: first=%g top=%g\n", row[0], row[1], row[2])
	}
	// Output:
	// span 0: first=0 top=2
	// span 1: first=1 top=2
}

// ExampleDB_QueryContext_operators compares M4-LSM with the baseline.
func ExampleDB_QueryContext_operators() {
	dir, _ := os.MkdirTemp("", "m4lsm-example-")
	defer os.RemoveAll(dir)

	db, err := m4lsm.Open(dir, m4lsm.WithFlushThreshold(4))
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	for i := int64(0); i < 16; i++ {
		db.Write("s", m4lsm.Point{Time: i, Value: float64(i)})
	}
	db.Flush()

	const q = `SELECT M4(*) FROM s WHERE time >= 0 AND time < 16 GROUP BY SPANS(2) USING `
	lsm, _ := db.QueryContext(context.Background(), q+"LSM")
	udf, _ := db.QueryContext(context.Background(), q+"UDF")
	fmt.Println("equal results:", fmt.Sprint(lsm.Rows) == fmt.Sprint(udf.Rows))
	fmt.Println("LSM chunk loads:", lsm.Stats.ChunksLoaded, "UDF chunk loads:", udf.Stats.ChunksLoaded)
	// Output:
	// equal results: true
	// LSM chunk loads: 0 UDF chunk loads: 4
}
