package m4lsm

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// buildConcurrencyDB loads the same out-of-order state with overwrites and
// a delete into each series, the storage shape where M4-LSM does real
// verification work. Values are distinct, so no two operators may break a
// bottom/top tie differently.
func buildConcurrencyDB(t *testing.T, ids ...string) *DB {
	t.Helper()
	db := openDB(t, WithFlushThreshold(64))
	for _, id := range ids {
		for i := 499; i >= 0; i-- {
			db.Write(id, Point{Time: int64(i * 2), Value: float64((i*13)%41) + float64(i)/1000})
		}
		for i := 100; i < 200; i++ { // overwrite a slice of the range
			db.Write(id, Point{Time: int64(i * 2), Value: -float64(i)})
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		db.Delete(id, 300, 420)
	}
	return db
}

// TestConcurrentM4 fires many M4 statements at once at the shared chunk
// files, on both operators: every request runs on its own goroutine, and
// each must see the reference result while the file readers' column pools
// survive -race.
func TestConcurrentM4(t *testing.T) {
	db := buildConcurrencyDB(t, "s")
	stmt := func(op string) string {
		return fmt.Sprintf(`SELECT M4(*) FROM s WHERE time >= 0 AND time < 1000 GROUP BY SPANS(37) USING %s`, op)
	}
	want := query(t, db, stmt("LSM")).Rows
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Mix operators so full and timestamp-only loads interleave.
			op := "LSM"
			if g%3 == 0 {
				op = "UDF"
			}
			if res, err := db.QueryContext(t.Context(), stmt(op)); err != nil || !reflect.DeepEqual(res.Rows, want) {
				t.Errorf("goroutine %d: err %v, or rows diverge from the reference", g, err)
			}
		}()
	}
	wg.Wait()
}
