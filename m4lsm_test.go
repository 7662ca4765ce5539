package m4lsm

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"reflect"
	"testing"
)

func openDB(t *testing.T, opts ...Option) *DB {
	t.Helper()
	db, err := Open(t.TempDir(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// query runs one statement through the door and fails the test on error.
func query(t *testing.T, db *DB, q string) *QueryResult {
	t.Helper()
	res, err := db.QueryContext(t.Context(), q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return res
}

func TestPublicAPIRoundTrip(t *testing.T) {
	db := openDB(t)
	db.Write("root.s", Point{Time: 30, Value: 1}, Point{Time: 10, Value: 3}, Point{Time: 20, Value: 8}, Point{Time: 40, Value: 0})
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.Delete("root.s", 35, 45)
	res := query(t, db, `SELECT M4(*) FROM root.s WHERE time >= 0 AND time < 100 GROUP BY SPANS(1)`)
	if want := [][]float64{{0, 10, 3, 30, 1, 30, 1, 20, 8}}; !reflect.DeepEqual(res.Rows, want) || res.Partial {
		t.Fatalf("rows = %v (partial %v), want %v", res.Rows, res.Partial, want)
	}
}

func TestPublicQuery(t *testing.T) {
	db := openDB(t)
	db.Write("root.s", Point{Time: 5, Value: 2}, Point{Time: 15, Value: 4})
	res := query(t, db, `SELECT M4(*) FROM root.s WHERE time >= 0 AND time < 20 GROUP BY SPANS(2)`)
	if len(res.Rows) != 2 || len(res.Columns) != 9 || res.Text() == "" {
		t.Fatalf("rows = %v columns = %v", res.Rows, res.Columns)
	}
}

// TestPublicValidation: a bad statement is an error, and so is EXPLAIN,
// which is a shell command rather than a query.
func TestPublicValidation(t *testing.T) {
	db := openDB(t)
	for _, q := range []string{
		`SELECT garbage`,
		`SELECT M4(*) FROM s WHERE time >= 10 AND time < 5 GROUP BY SPANS(3)`,
		`EXPLAIN SELECT M4(*) FROM s WHERE time >= 0 AND time < 10 GROUP BY SPANS(1)`,
	} {
		if _, err := db.QueryContext(t.Context(), q); err == nil {
			t.Errorf("accepted %s", q)
		}
	}
}

// TestPublicOptions: WithFlushThreshold flushes a full memtable on its own.
func TestPublicOptions(t *testing.T) {
	db := openDB(t, WithFlushThreshold(10))
	for i := 0; i < 25; i++ {
		db.Write("s", Point{Time: int64(i), Value: 1})
	}
	if n := db.Info().Files; n != 2 {
		t.Errorf("files = %d, want 2 auto-flushes at threshold 10", n)
	}
}

func TestPublicCompact(t *testing.T) {
	db := openDB(t, WithFlushThreshold(4))
	db.Write("s", Point{Time: 10, Value: 1}, Point{Time: 30, Value: 3}, Point{Time: 50, Value: 5}, Point{Time: 70, Value: 7})
	db.Write("s", Point{Time: 20, Value: 2}, Point{Time: 40, Value: 4}, Point{Time: 60, Value: 6}, Point{Time: 80, Value: 8})
	db.Delete("s", 40, 45)
	const q = `SELECT M4(*) FROM s WHERE time >= 0 AND time < 100 GROUP BY SPANS(2)`
	before := query(t, db, q).Rows
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if after := query(t, db, q).Rows; !reflect.DeepEqual(before, after) {
		t.Fatalf("compaction changed the answer: %v vs %v", before, after)
	}
	if info := db.Info(); info.Deletes != 0 || info.Files != 1 {
		t.Errorf("after compaction: %+v, want deletes folded into one file", info)
	}
}

func TestPublicPersistence(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, WithSyncWAL())
	if err != nil {
		t.Fatal(err)
	}
	db.Write("s", Point{Time: 1, Value: 9})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	res := query(t, db, `SELECT FirstValue(s) FROM s WHERE time >= 0 AND time < 10 GROUP BY SPANS(1)`)
	if ids := db.SeriesIDs(); !reflect.DeepEqual(ids, []string{"s"}) || !reflect.DeepEqual(res.Rows, [][]float64{{0, 9}}) || db.Info().Chunks != 1 {
		t.Fatalf("series = %v, rows = %v, info = %+v", ids, res.Rows, db.Info())
	}
}

func TestPublicEmptySeries(t *testing.T) {
	db := openDB(t)
	if res := query(t, db, `SELECT M4(*) FROM missing WHERE time >= 0 AND time < 10 GROUP BY SPANS(4)`); len(res.Rows) != 0 || res.Partial {
		t.Fatalf("rows = %v partial = %v", res.Rows, res.Partial)
	}
}

// TestPublicDoor runs every statement form of the read contract over one
// series and two through QueryContext: the LSM and UDF twins of a form
// agree, a series' rows do not depend on what else the statement names,
// and a cancelled context stops every form.
func TestPublicDoor(t *testing.T) {
	db := buildConcurrencyDB(t, "a", "b")
	forms := []struct{ name, sel, tail, twin string }{
		{"m4", "M4(*)", "", ""},
		{"m4-udf", "M4(*)", " USING UDF", "m4"},
		{"represent-minmax", "M4(*)", " REPRESENT minmax", ""},
		{"represent-lttb", "M4(*)", " REPRESENT lttb", ""},
		{"represent-udf", "M4(*)", " REPRESENT lttb USING UDF", "represent-lttb"},
		{"groupby-merge", "COUNT(v), AVG(v)", " PARALLEL 2", ""},
		{"groupby-envelope", "MIN(v), MAX(v)", "", ""},
	}
	cancelled, cancel := context.WithCancel(t.Context())
	cancel()
	rows := map[string][][]float64{}
	for _, form := range forms {
		for _, from := range []string{"a", "a, b"} {
			q := fmt.Sprintf(`SELECT %s FROM %s WHERE time >= 0 AND time < 1000 GROUP BY SPANS(7)%s`, form.sel, from, form.tail)
			if _, err := db.QueryContext(cancelled, q); !errors.Is(err, context.Canceled) {
				t.Errorf("%s FROM %s, cancelled: err = %v", form.name, from, err)
			}
			res := query(t, db, q)
			switch {
			case res.Partial:
				t.Errorf("%s FROM %s: partial on a healthy store: %v", form.name, from, res.Warnings)
			case from == "a":
				rows[form.name] = res.Rows
			case len(res.Series) != 2 || res.Rows != nil:
				t.Errorf("%s FROM a, b: %d rows, %d series blocks", form.name, len(res.Rows), len(res.Series))
			case !reflect.DeepEqual(res.Series[0].Rows, rows[form.name]) || !reflect.DeepEqual(res.Series[1].Rows, rows[form.name]):
				t.Errorf("%s FROM a, b: series rows differ from FROM a alone", form.name)
			}
		}
		if form.twin != "" && !reflect.DeepEqual(rows[form.name], rows[form.twin]) {
			t.Errorf("%s and %s disagree:\n%v\n%v", form.name, form.twin, rows[form.name], rows[form.twin])
		}
	}
}

// TestWideNanosecondWindow zooms out over a nanosecond series, where
// W·(Tqe−Tqs) is far past 2^63, and requires both operators to answer what
// the span definition computed with math/big says, from the memtable and
// from disk. The first probe's 100 points all fall in one span (span 944:
// a span is 1.8e15 ns wide); the second's fall in 100 spans of their own.
func TestWideNanosecondWindow(t *testing.T) {
	const base, tqe = int64(1_700_000_000_000_000_000), int64(1_800_000_000_000_000_000)
	for _, probe := range []struct {
		step int64
		w    int
	}{{1_000_000_000, 1000}, {1_000_000_000_000_000, 1800}} {
		db := openDB(t)
		pts := make([]Point, 100)
		for i := range pts {
			// 37 is prime to 100: distinct values, so bottom and top are unique.
			pts[i] = Point{Time: base + int64(i)*probe.step, Value: float64(i * 37 % 100)}
		}
		if err := db.Write("root.ns", pts...); err != nil {
			t.Fatal(err)
		}
		// The oracle: span of t is floor(W·t/Tqe) (Tqs is 0), then the
		// four points of each span's time-ordered run.
		var want [][]float64
		for _, p := range pts {
			n := new(big.Int).Mul(big.NewInt(int64(probe.w)), big.NewInt(p.Time))
			span := float64(n.Quo(n, big.NewInt(tqe)).Int64())
			tv := []float64{float64(p.Time), p.Value}
			if k := len(want) - 1; k >= 0 && want[k][0] == span {
				row := want[k]
				copy(row[3:5], tv)
				if p.Value < row[6] {
					copy(row[5:7], tv)
				}
				if p.Value > row[8] {
					copy(row[7:9], tv)
				}
				continue
			}
			want = append(want, append([]float64{span}, tv[0], tv[1], tv[0], tv[1], tv[0], tv[1], tv[0], tv[1]))
		}
		if probe.w == 1800 && len(want) != 100 {
			t.Fatalf("the oracle puts the spread probe in %d spans", len(want))
		}
		for _, phase := range []string{"memtable", "flushed"} {
			if phase == "flushed" {
				if err := db.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			for _, using := range []string{"LSM", "UDF"} {
				q := fmt.Sprintf("SELECT M4(*) FROM root.ns WHERE time >= 0 AND time < %d GROUP BY SPANS(%d) USING %s", tqe, probe.w, using)
				if res := query(t, db, q); !reflect.DeepEqual(res.Rows, want) {
					t.Errorf("%s, %s: %d rows, want %d:\n%v\nwant\n%v", q, phase, len(res.Rows), len(want), res.Rows, want)
				}
			}
		}
	}
}
