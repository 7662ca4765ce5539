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
	db := openDB(t, WithFlushThreshold(64), WithChunkCache(1<<20))
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

// m4Query spans the whole store in w spans with the given operator and
// PARALLEL clause (0 leaves it out: GOMAXPROCS workers).
func m4Query(w int, op string, par int) string {
	q := fmt.Sprintf(`SELECT M4(*) FROM s WHERE time >= 0 AND time < 1000 GROUP BY SPANS(%d) USING %s`, w, op)
	if par > 0 {
		q += fmt.Sprintf(" PARALLEL %d", par)
	}
	return q
}

// TestConcurrentM4ThroughCache fires many M4 statements at once through the
// shared chunk cache: every goroutine must see the reference result, and the
// shared LRU plus the per-query singleflight gates must survive -race.
func TestConcurrentM4ThroughCache(t *testing.T) {
	db := buildConcurrencyDB(t, "s")
	want := query(t, db, m4Query(37, "LSM", 1)).Rows
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Mix operators and parallelism so cached and uncached loads,
			// sequential and pooled execution all interleave.
			op := "LSM"
			if g%3 == 0 {
				op = "UDF"
			}
			if res, err := db.QueryContext(t.Context(), m4Query(37, op, 1+g%4)); err != nil || !reflect.DeepEqual(res.Rows, want) {
				t.Errorf("goroutine %d: err %v, or rows diverge from the reference", g, err)
			}
		}()
	}
	wg.Wait()
}

// TestParallelismKnobPublic checks the PARALLEL clause end to end: equal
// rows and identical chunk-load counts at every setting, for M4 on both
// operators and for the merge-all forms (LTTB on both operators, GROUP BY's
// count/avg scan), over one series and over two, where the series share the
// workers.
func TestParallelismKnobPublic(t *testing.T) {
	db := buildConcurrencyDB(t, "s", "t")
	forms := []struct{ sel, tail string }{
		{"M4(*)", " USING LSM"},
		{"M4(*)", " USING UDF"},
		{"M4(*)", " REPRESENT lttb"},
		{"M4(*)", " REPRESENT lttb USING UDF"},
		{"COUNT(v), AVG(v)", ""},
	}
	// Each series' rows: the flat Rows of FROM s, one block per series of
	// FROM s, t.
	rows := func(res *QueryResult) [][][]float64 {
		out := [][][]float64{res.Rows}
		for _, s := range res.Series {
			out = append(out, s.Rows)
		}
		return out
	}
	for _, form := range forms {
		for _, from := range []string{"s", "s, t"} {
			// par 0 leaves the clause out: GOMAXPROCS workers.
			stmt := func(par int) string {
				q := fmt.Sprintf(`SELECT %s FROM %s WHERE time >= 0 AND time < 1000 GROUP BY SPANS(53)%s`, form.sel, from, form.tail)
				if par > 0 {
					q += fmt.Sprintf(" PARALLEL %d", par)
				}
				return q
			}
			want := query(t, db, stmt(1))
			if want.Stats.ChunksLoaded == 0 {
				t.Fatalf("%s: loaded no chunk", stmt(1))
			}
			for _, par := range []int{0, 2, 4, 8} {
				got := query(t, db, stmt(par))
				if !reflect.DeepEqual(rows(got), rows(want)) || got.Stats.ChunksLoaded != want.Stats.ChunksLoaded {
					t.Fatalf("%s: rows or ChunksLoaded (%d) differ from PARALLEL 1 (%d)", stmt(par), got.Stats.ChunksLoaded, want.Stats.ChunksLoaded)
				}
			}
		}
	}
}

// TestPublicChunkCacheOption: WithChunkCache serves a repeated read from memory.
func TestPublicChunkCacheOption(t *testing.T) {
	db := buildConcurrencyDB(t, "s")
	first, second := query(t, db, m4Query(37, "UDF", 1)), query(t, db, m4Query(37, "UDF", 1))
	if !reflect.DeepEqual(first.Rows, second.Rows) || second.Stats.CacheHits == 0 || second.Stats.CacheMisses != 0 {
		t.Errorf("second read: hits %d misses %d", second.Stats.CacheHits, second.Stats.CacheMisses)
	}
}
