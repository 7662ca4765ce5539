package m4ql

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"m4lsm/internal/lsm"
	"m4lsm/internal/m4"
	"m4lsm/internal/series"
)

func TestParseM4Star(t *testing.T) {
	stmt, err := Parse(`SELECT M4(*) FROM root.kob WHERE time >= 0 AND time < 1000 GROUP BY SPANS(10) USING LSM`)
	if err != nil {
		t.Fatal(err)
	}
	want := Statement{
		Columns:  AllColumns(),
		SeriesID: "root.kob",
		Series:   []string{"root.kob"},
		Query:    m4.Query{Tqs: 0, Tqe: 1000, W: 10},
		Operator: OpLSM,
	}
	if !reflect.DeepEqual(stmt, want) {
		t.Fatalf("got %+v, want %+v", stmt, want)
	}
}

func TestParseColumnList(t *testing.T) {
	stmt, err := Parse(`select firsttime(v), topvalue(v) from "root.s 1" where TIME >= -5 and Time < 99 group by spans(3) using udf`)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stmt.Columns, []Column{ColFirstTime, ColTopValue}) {
		t.Errorf("columns = %v", stmt.Columns)
	}
	if stmt.SeriesID != "root.s 1" || stmt.Operator != OpUDF {
		t.Errorf("stmt = %+v", stmt)
	}
	if stmt.Query.Tqs != -5 || stmt.Query.Tqe != 99 || stmt.Query.W != 3 {
		t.Errorf("query = %+v", stmt.Query)
	}
}

func TestParseAppendixForm(t *testing.T) {
	// The full eight-column SQL of Appendix A.1.
	q := `SELECT FirstTime(T), FirstValue(T), LastTime(T), LastValue(T),
	             BottomTime(T), BottomValue(T), TopTime(T), TopValue(T)
	      FROM root.sg.d1
	      WHERE time >= 100 AND time < 200 GROUP BY SPANS(4)`
	stmt, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Columns) != 8 {
		t.Errorf("columns = %v", stmt.Columns)
	}
	if stmt.Operator != OpLSM {
		t.Error("default operator must be LSM")
	}
}

func TestParseRangeOrderIndependent(t *testing.T) {
	a, err := Parse(`SELECT M4(*) FROM s WHERE time < 10 AND time >= 2 GROUP BY SPANS(1)`)
	if err != nil {
		t.Fatal(err)
	}
	if a.Query.Tqs != 2 || a.Query.Tqe != 10 {
		t.Errorf("query = %+v", a.Query)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`SELECT`,
		`SELECT M4(*)`,
		`SELECT M4(x) FROM s WHERE time >= 0 AND time < 1 GROUP BY SPANS(1)`,
		`SELECT NOPE(v) FROM s WHERE time >= 0 AND time < 1 GROUP BY SPANS(1)`,
		`SELECT M4(*) FROM s WHERE time >= 0 AND time <= 1 GROUP BY SPANS(1)`,   // <= rejected
		`SELECT M4(*) FROM s WHERE time >= 0 AND time >= 1 GROUP BY SPANS(1)`,   // dup
		`SELECT M4(*) FROM s WHERE time >= 5 AND time < 5 GROUP BY SPANS(1)`,    // empty range
		`SELECT M4(*) FROM s WHERE time >= 0 AND time < 10 GROUP BY SPANS(0)`,   // w=0
		`SELECT M4(*) FROM s WHERE time >= 0 AND time < 10 GROUP BY SPANS(2) X`, // trailing
		`SELECT M4(*) FROM s WHERE time >= 0 AND time < 10 GROUP BY SPANS(2) USING TURBO`,
		`SELECT M4(*) FROM s WHERE time > 0 AND time < 10 GROUP BY SPANS(2)`, // lone >
		`SELECT M4(*) FROM 'unterminated WHERE time >= 0 AND time < 1 GROUP BY SPANS(1)`,
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("accepted: %s", q)
		}
	}
}

func TestColumnString(t *testing.T) {
	if ColBottomValue.String() != "BottomValue" {
		t.Error(ColBottomValue.String())
	}
	if !strings.Contains(Column(99).String(), "99") {
		t.Error(Column(99).String())
	}
	if OpLSM.String() != "LSM" || OpUDF.String() != "UDF" {
		t.Error("operator names")
	}
}

func newEngine(t *testing.T) *lsm.Engine {
	t.Helper()
	e, err := lsm.Open(lsm.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func TestExecuteEndToEnd(t *testing.T) {
	e := newEngine(t)
	for i := 0; i < 100; i++ {
		if err := e.Write("root.s1", series.Point{T: int64(i * 10), V: float64(i % 7)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, op := range []string{"LSM", "UDF"} {
		res, err := Run(e, `SELECT M4(*) FROM root.s1 WHERE time >= 0 AND time < 1000 GROUP BY SPANS(5) USING `+op)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 5 {
			t.Fatalf("%s rows = %d, want 5", op, len(res.Rows))
		}
		if len(res.Columns) != 9 { // span + 8
			t.Fatalf("columns = %v", res.Columns)
		}
		// First row, first span: first point t=0 v=0, top value 6.
		row := res.Rows[0]
		if row[0] != 0 || row[1] != 0 || row[2] != 0 {
			t.Errorf("%s row0 = %v", op, row)
		}
		if res.Operator != op {
			t.Errorf("operator = %s", res.Operator)
		}
		if res.Text() == "" {
			t.Error("empty text rendering")
		}
	}
}

func TestExecuteOperatorsAgree(t *testing.T) {
	e := newEngine(t)
	// Out-of-order writes + deletes for a nontrivial state.
	for i := 99; i >= 0; i-- {
		e.Write("s", series.Point{T: int64(i * 5), V: float64((i * 13) % 31)})
	}
	e.Flush()
	e.Delete("s", 100, 150)
	e.Write("s", series.Point{T: 120, V: 500})
	e.Flush()
	lsmRes, err := Run(e, `SELECT M4(*) FROM s WHERE time >= 0 AND time < 500 GROUP BY SPANS(7) USING LSM`)
	if err != nil {
		t.Fatal(err)
	}
	udfRes, err := Run(e, `SELECT M4(*) FROM s WHERE time >= 0 AND time < 500 GROUP BY SPANS(7) USING UDF`)
	if err != nil {
		t.Fatal(err)
	}
	if len(lsmRes.Rows) != len(udfRes.Rows) {
		t.Fatalf("row counts: %d vs %d", len(lsmRes.Rows), len(udfRes.Rows))
	}
	for i := range lsmRes.Rows {
		a, b := lsmRes.Rows[i], udfRes.Rows[i]
		// span, FirstTime/Value, LastTime/Value match exactly;
		// Bottom/Top compare by value only (columns 6 and 8).
		for _, j := range []int{0, 1, 2, 3, 4, 6, 8} {
			if a[j] != b[j] {
				t.Fatalf("row %d col %d (%s): %v vs %v", i, j, lsmRes.Columns[j], a[j], b[j])
			}
		}
	}
}

func TestExecuteEmptySpansOmitted(t *testing.T) {
	e := newEngine(t)
	e.Write("s", series.Point{T: 5, V: 1})
	e.Flush()
	res, err := Run(e, `SELECT M4(*) FROM s WHERE time >= 0 AND time < 100 GROUP BY SPANS(10)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != 0 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.SpanCount != 10 {
		t.Errorf("SpanCount = %d", res.SpanCount)
	}
}

func TestExecuteUnknownSeries(t *testing.T) {
	e := newEngine(t)
	res, err := Run(e, `SELECT M4(*) FROM nothing WHERE time >= 0 AND time < 10 GROUP BY SPANS(2)`)
	if err != nil {
		t.Fatal(err) // unknown series = empty result, like an empty table
	}
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestResultJSON(t *testing.T) {
	e := newEngine(t)
	e.Write("s", series.Point{T: 1, V: 2})
	e.Flush()
	res, err := Run(e, `SELECT M4(*) FROM s WHERE time >= 0 AND time < 10 GROUP BY SPANS(1)`)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Rows, res.Rows) || !reflect.DeepEqual(back.Columns, res.Columns) {
		t.Error("JSON round trip lost data")
	}
}

func TestExplain(t *testing.T) {
	e := newEngine(t)
	for i := 0; i < 50; i++ {
		e.Write("s", series.Point{T: int64(i * 10), V: float64(i)})
	}
	e.Flush()
	stmt, err := Parse(`EXPLAIN SELECT M4(*) FROM s WHERE time >= 0 AND time < 500 GROUP BY SPANS(5) USING LSM`)
	if err != nil {
		t.Fatal(err)
	}
	if !stmt.Explain {
		t.Fatal("Explain flag not set")
	}
	text, err := Explain(t.Context(), e, stmt)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"merge free", "chunks pruned", "spans", "s"} {
		if !strings.Contains(text, want) {
			t.Errorf("explain output missing %q:\n%s", want, text)
		}
	}
	// Run must reject EXPLAIN; RunAny must handle both.
	if _, err := Run(e, `EXPLAIN SELECT M4(*) FROM s WHERE time >= 0 AND time < 5 GROUP BY SPANS(1)`); err == nil {
		t.Error("Run accepted EXPLAIN")
	}
	res, explain, err := RunAny(t.Context(), e, `SELECT M4(*) FROM s WHERE time >= 0 AND time < 500 GROUP BY SPANS(5)`)
	if err != nil || res == nil || explain != "" {
		t.Fatalf("RunAny plain: %v %q %v", res, explain, err)
	}
	res, explain, err = RunAny(t.Context(), e, `EXPLAIN SELECT M4(*) FROM s WHERE time >= 0 AND time < 500 GROUP BY SPANS(5) USING UDF`)
	if err != nil || res != nil || !strings.Contains(explain, "M4-UDF") {
		t.Fatalf("RunAny explain: %v %q %v", res, explain, err)
	}
}

func TestParserNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tokens := []string{"SELECT", "M4", "(", ")", "*", ",", "FROM", "WHERE", "time",
		">=", "<", "AND", "GROUP", "BY", "SPANS", "USING", "LSM", "UDF", "EXPLAIN",
		"42", "-7", "'str", "x.y", "\x00", "<=", ">"}
	for trial := 0; trial < 5000; trial++ {
		n := rng.Intn(12)
		parts := make([]string, n)
		for i := range parts {
			parts[i] = tokens[rng.Intn(len(tokens))]
		}
		q := strings.Join(parts, " ")
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %q: %v", q, r)
				}
			}()
			Parse(q)
		}()
	}
}

func TestParseAggregates(t *testing.T) {
	stmt, err := Parse(`SELECT COUNT(v), AVG(v), MAX(v) FROM s WHERE time >= 0 AND time < 100 GROUP BY SPANS(4)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Columns) != 0 || len(stmt.Aggregates) != 3 {
		t.Fatalf("stmt = %+v", stmt)
	}
	if stmt.Aggregates[0].String() != "count" || stmt.Aggregates[2].String() != "max" {
		t.Fatalf("aggregates = %v", stmt.Aggregates)
	}
	// Mixing families is rejected.
	if _, err := Parse(`SELECT COUNT(v), FirstTime(v) FROM s WHERE time >= 0 AND time < 100 GROUP BY SPANS(4)`); err == nil {
		t.Error("mixed projection accepted")
	}
	if _, err := Parse(`SELECT FirstTime(v), COUNT(v) FROM s WHERE time >= 0 AND time < 100 GROUP BY SPANS(4)`); err == nil {
		t.Error("mixed projection accepted (other order)")
	}
}

func TestExecuteAggregates(t *testing.T) {
	e := newEngine(t)
	for i := 0; i < 10; i++ {
		e.Write("s", series.Point{T: int64(i * 10), V: float64(i)})
	}
	e.Flush()
	res, err := Run(e, `SELECT COUNT(v), SUM(v), MIN(v), MAX(v) FROM s WHERE time >= 0 AND time < 100 GROUP BY SPANS(2)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Span 0: points 0..4 -> count 5, sum 10, min 0, max 4.
	if got := res.Rows[0]; got[1] != 5 || got[2] != 10 || got[3] != 0 || got[4] != 4 {
		t.Fatalf("row0 = %v", got)
	}
	if res.Columns[1] != "count" || res.Columns[4] != "max" {
		t.Fatalf("columns = %v", res.Columns)
	}
	// An envelope-only query over a single span (the chunk is not split)
	// runs merge free: metadata answers it without loading.
	res2, err := Run(e, `SELECT MIN(v), MAX(v) FROM s WHERE time >= 0 AND time < 100 GROUP BY SPANS(1)`)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.ChunksLoaded != 0 {
		t.Errorf("envelope aggregates loaded chunks: %+v", res2.Stats)
	}
	if res2.Rows[0][1] != 0 || res2.Rows[0][2] != 9 {
		t.Fatalf("envelope row = %v", res2.Rows[0])
	}
}

// TestParseParallelClause: PARALLEL n was removed, and a statement that
// still carries it, in any position or form, is refused by name.
func TestParseParallelClause(t *testing.T) {
	for _, q := range []string{
		`SELECT M4(*) FROM s WHERE time >= 0 AND time < 100 GROUP BY SPANS(4) PARALLEL 3`,
		`SELECT M4(*) FROM s WHERE time >= 0 AND time < 100 GROUP BY SPANS(4) USING UDF PARALLEL 3`,
		`SELECT M4(*) FROM s WHERE time >= 0 AND time < 100 GROUP BY SPANS(4) parallel 3 USING UDF`,
		`SELECT M4(*) FROM s WHERE time >= 0 AND time < 100 GROUP BY SPANS(4) PARALLEL`,
	} {
		if _, err := Parse(q); err == nil || err.Error() != "m4ql: PARALLEL was removed; a query runs on one goroutine" {
			t.Errorf("%s: err = %v, want PARALLEL's removal named", q, err)
		}
	}
	if _, err := Parse(`SELECT M4(*) FROM s WHERE time >= 0 AND time < 100 GROUP BY SPANS(4) USING LSM USING LSM`); err == nil {
		t.Error("accepted a duplicate USING clause")
	}
}

func mustParse(t *testing.T, q string) Statement {
	t.Helper()
	stmt, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	return stmt
}

func TestParseMultiSeries(t *testing.T) {
	stmt := mustParse(t, `SELECT M4(*) FROM s1, s2, "s 3" WHERE time >= 0 AND time < 100 GROUP BY SPANS(4)`)
	if !reflect.DeepEqual(stmt.Series, []string{"s1", "s2", "s 3"}) {
		t.Fatalf("series = %v", stmt.Series)
	}
	if stmt.SeriesID != "s1" || !stmt.Multi() || stmt.Wildcard {
		t.Fatalf("stmt = %+v", stmt)
	}

	stmt = mustParse(t, `SELECT M4(*) FROM root.* WHERE time >= 0 AND time < 100 GROUP BY SPANS(4)`)
	if !stmt.Wildcard || stmt.WildcardPrefix != "root." || !stmt.Multi() {
		t.Fatalf("stmt = %+v", stmt)
	}
	stmt = mustParse(t, `SELECT M4(*) FROM * WHERE time >= 0 AND time < 100 GROUP BY SPANS(4)`)
	if !stmt.Wildcard || stmt.WildcardPrefix != "" {
		t.Fatalf("stmt = %+v", stmt)
	}

	bad := []string{
		`SELECT M4(*) FROM root.*, s2 WHERE time >= 0 AND time < 100 GROUP BY SPANS(4)`,
		`SELECT M4(*) FROM s1, root.* WHERE time >= 0 AND time < 100 GROUP BY SPANS(4)`,
		`SELECT M4(*) FROM s1, s1 WHERE time >= 0 AND time < 100 GROUP BY SPANS(4)`,
		`SELECT M4(*) FROM s1, WHERE time >= 0 AND time < 100 GROUP BY SPANS(4)`,
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("accepted: %s", q)
		}
	}
}

func TestExecuteMultiSeries(t *testing.T) {
	e := newEngine(t)
	for i := 0; i < 60; i++ {
		e.Write("root.a", series.Point{T: int64(i * 10), V: float64(i % 5)})
		e.Write("root.b", series.Point{T: int64(i * 10), V: float64(i % 9)})
		e.Write("other", series.Point{T: int64(i * 10), V: 1})
	}
	e.Flush()
	for _, op := range []string{"LSM", "UDF"} {
		res, err := Run(e, `SELECT M4(*) FROM root.* WHERE time >= 0 AND time < 600 GROUP BY SPANS(4) USING `+op)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Series) != 2 || res.Series[0].SeriesID != "root.a" || res.Series[1].SeriesID != "root.b" {
			t.Fatalf("%s series = %+v", op, res.Series)
		}
		if res.Rows != nil {
			t.Errorf("%s top-level rows present in multi result", op)
		}
		// Each series' block must match its own single-series run.
		for _, sr := range res.Series {
			single, err := Run(e, `SELECT M4(*) FROM "`+sr.SeriesID+`" WHERE time >= 0 AND time < 600 GROUP BY SPANS(4) USING `+op)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sr.Rows, single.Rows) {
				t.Errorf("%s %s rows diverge from single-series run", op, sr.SeriesID)
			}
		}
		if res.Text() == "" {
			t.Error("empty text rendering")
		}
	}
	// Explicit list preserves FROM order.
	res, err := Run(e, `SELECT M4(*) FROM root.b, root.a WHERE time >= 0 AND time < 600 GROUP BY SPANS(4)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 || res.Series[0].SeriesID != "root.b" {
		t.Fatalf("series = %+v", res.Series)
	}
	// Empty wildcard match is an empty result, not an error.
	res, err = Run(e, `SELECT M4(*) FROM nothing.* WHERE time >= 0 AND time < 600 GROUP BY SPANS(4)`)
	if err != nil || len(res.Series) != 0 {
		t.Fatalf("empty wildcard: %+v %v", res, err)
	}
}

func TestExecuteMultiSeriesAggregates(t *testing.T) {
	e := newEngine(t)
	for i := 0; i < 20; i++ {
		e.Write("root.a", series.Point{T: int64(i * 10), V: float64(i)})
		e.Write("root.b", series.Point{T: int64(i * 10), V: float64(-i)})
	}
	e.Flush()
	res, err := Run(e, `SELECT COUNT(v), MIN(v) FROM root.* WHERE time >= 0 AND time < 200 GROUP BY SPANS(2)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("series = %+v", res.Series)
	}
	if got := res.Series[0].Rows[0]; got[1] != 10 || got[2] != 0 {
		t.Fatalf("root.a row0 = %v", got)
	}
	if got := res.Series[1].Rows[1]; got[1] != 10 || got[2] != -19 {
		t.Fatalf("root.b row1 = %v", got)
	}
}

func TestExplainMultiSeries(t *testing.T) {
	e := newEngine(t)
	e.Write("root.a", series.Point{T: 1, V: 1})
	e.Write("root.b", series.Point{T: 1, V: 2})
	e.Flush()
	text, err := Explain(t.Context(), e, mustParse(t, `SELECT M4(*) FROM root.* WHERE time >= 0 AND time < 10 GROUP BY SPANS(1)`))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "root.* (2 matched)") {
		t.Errorf("explain output:\n%s", text)
	}
}
