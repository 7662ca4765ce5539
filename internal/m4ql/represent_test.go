package m4ql

import (
	"math/rand"
	"strings"
	"testing"

	"m4lsm/internal/lsm"
	"m4lsm/internal/m4"
	"m4lsm/internal/mergeread"
	"m4lsm/internal/reprops"
	"m4lsm/internal/series"
)

func TestParseRepresent(t *testing.T) {
	cases := map[string]reprops.Spec{
		`SELECT M4(*) FROM s WHERE time >= 0 AND time < 100 GROUP BY SPANS(10) REPRESENT minmax`:                   {Kind: reprops.KindMinMax},
		`SELECT M4(*) FROM s WHERE time >= 0 AND time < 100 GROUP BY SPANS(10) REPRESENT LTTB`:                     {Kind: reprops.KindLTTB},
		`SELECT M4(*) FROM s WHERE time >= 0 AND time < 100 GROUP BY SPANS(10) REPRESENT minmaxlttb`:               {Kind: reprops.KindMinMaxLTTB},
		`SELECT M4(*) FROM s WHERE time >= 0 AND time < 100 GROUP BY SPANS(10) REPRESENT minmaxlttb:8`:             {Kind: reprops.KindMinMaxLTTB, Ratio: 8},
		`SELECT M4(*) FROM s WHERE time >= 0 AND time < 100 GROUP BY SPANS(10) REPRESENT m4`:                       {Kind: reprops.KindM4},
		`SELECT M4(*) FROM s WHERE time >= 0 AND time < 100 GROUP BY SPANS(10) USING UDF REPRESENT lttb STRICT`:    {Kind: reprops.KindLTTB},
		`SELECT M4(*) FROM s WHERE time >= 0 AND time < 100 GROUP BY SPANS(10) REPRESENT lttb TRACE`:               {Kind: reprops.KindLTTB},
		`SELECT M4(*) FROM s WHERE time >= 0 AND time < 100 GROUP BY SPANS(10) TIMEOUT 500 REPRESENT minmaxlttb:2`: {Kind: reprops.KindMinMaxLTTB, Ratio: 2},
	}
	for in, want := range cases {
		stmt, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		if stmt.Represent == nil || *stmt.Represent != want {
			t.Fatalf("Parse(%q).Represent = %+v, want %+v", in, stmt.Represent, want)
		}
	}
}

func TestParseRepresentErrors(t *testing.T) {
	bad := []string{
		// Unknown name, malformed ratios, ratio on the wrong operator.
		`SELECT M4(*) FROM s WHERE time >= 0 AND time < 100 GROUP BY SPANS(10) REPRESENT nope`,
		`SELECT M4(*) FROM s WHERE time >= 0 AND time < 100 GROUP BY SPANS(10) REPRESENT minmaxlttb:`,
		`SELECT M4(*) FROM s WHERE time >= 0 AND time < 100 GROUP BY SPANS(10) REPRESENT minmaxlttb:1`,
		`SELECT M4(*) FROM s WHERE time >= 0 AND time < 100 GROUP BY SPANS(10) REPRESENT minmaxlttb:65`,
		`SELECT M4(*) FROM s WHERE time >= 0 AND time < 100 GROUP BY SPANS(10) REPRESENT lttb:4`,
		`SELECT M4(*) FROM s WHERE time >= 0 AND time < 100 GROUP BY SPANS(10) REPRESENT 4`,
		`SELECT M4(*) FROM s WHERE time >= 0 AND time < 100 GROUP BY SPANS(10) REPRESENT`,
		// Duplicate clause.
		`SELECT M4(*) FROM s WHERE time >= 0 AND time < 100 GROUP BY SPANS(10) REPRESENT lttb REPRESENT minmax`,
		// Aggregates and REPRESENT cannot mix.
		`SELECT COUNT(v) FROM s WHERE time >= 0 AND time < 100 GROUP BY SPANS(10) REPRESENT lttb`,
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

// TestExecuteRepresent checks every operator end to end through both USING
// paths against the reference reduction over the merged series.
func TestExecuteRepresent(t *testing.T) {
	e, err := lsm.Open(lsm.Options{Dir: t.TempDir(), FlushThreshold: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 700; i++ {
		// Tie-free values so BP/TP extremal picks are unique.
		if err := e.Write("root.a", series.Point{T: int64(i), V: float64(i%97) + rng.Float64()*0.5}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	snap, err := e.Snapshot("root.a", series.TimeRange{Start: 0, End: 700})
	if err != nil {
		t.Fatal(err)
	}
	full, err := mergeread.Merge(snap, series.TimeRange{Start: 0, End: 700})
	if err != nil {
		t.Fatal(err)
	}
	for _, repr := range []string{"m4", "minmax", "lttb", "minmaxlttb", "minmaxlttb:2"} {
		spec, err := reprops.ParseSpec(repr)
		if err != nil {
			t.Fatal(err)
		}
		want, err := reprops.Reduce(spec, m4.Query{Tqs: 0, Tqe: 700, W: 13}, full)
		if err != nil {
			t.Fatal(err)
		}
		for _, using := range []string{"LSM", "UDF"} {
			q := `SELECT M4(*) FROM root.a WHERE time >= 0 AND time < 700 GROUP BY SPANS(13) USING ` + using + ` REPRESENT ` + repr
			res, err := Run(e, q)
			if err != nil {
				t.Fatalf("%s/%s: %v", repr, using, err)
			}
			if res.Represent != spec.String() {
				t.Fatalf("%s/%s: Represent = %q, want %q", repr, using, res.Represent, spec.String())
			}
			if len(res.Columns) != 2 || res.Columns[0] != "time" || res.Columns[1] != "value" {
				t.Fatalf("%s/%s: columns = %v", repr, using, res.Columns)
			}
			if len(res.Rows) != len(want) {
				t.Fatalf("%s/%s: %d rows, oracle has %d points", repr, using, len(res.Rows), len(want))
			}
			for i, row := range res.Rows {
				if int64(row[0]) != want[i].T || row[1] != want[i].V {
					t.Fatalf("%s/%s: row %d = %v, oracle %v", repr, using, i, row, want[i])
				}
			}
			if !strings.Contains(res.Text(), "value") {
				t.Fatalf("%s/%s: Text() lost the header", repr, using)
			}
		}
	}
}

// TestExecuteRepresentMulti checks the per-series block shape for wildcard
// REPRESENT statements.
func TestExecuteRepresentMulti(t *testing.T) {
	e, err := lsm.Open(lsm.Options{Dir: t.TempDir(), FlushThreshold: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 300; i++ {
		e.Write("root.x", series.Point{T: int64(i), V: float64(i) + 0.25})
		e.Write("root.y", series.Point{T: int64(i * 2), V: float64(300 - i)})
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(e, `SELECT M4(*) FROM root.* WHERE time >= 0 AND time < 600 GROUP BY SPANS(7) REPRESENT minmax`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 || res.Series[0].SeriesID != "root.x" || res.Series[1].SeriesID != "root.y" {
		t.Fatalf("series blocks = %+v", res.Series)
	}
	for _, sr := range res.Series {
		if len(sr.Rows) == 0 {
			t.Fatalf("series %s: no rows", sr.SeriesID)
		}
		for i := 1; i < len(sr.Rows); i++ {
			if sr.Rows[i-1][0] >= sr.Rows[i][0] {
				t.Fatalf("series %s: rows not time-sorted", sr.SeriesID)
			}
		}
	}
	if res.Rows != nil {
		t.Fatal("multi-series result must keep top-level Rows nil")
	}
}

// TestExplainRepresent checks the plan line.
func TestExplainRepresent(t *testing.T) {
	e, err := lsm.Open(lsm.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Write("s", series.Point{T: 1, V: 2})
	e.Flush()
	stmt, err := Parse(`EXPLAIN SELECT M4(*) FROM s WHERE time >= 0 AND time < 10 GROUP BY SPANS(2) REPRESENT minmaxlttb:8`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Explain(t.Context(), e, stmt)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "minmaxlttb:8") || !strings.Contains(plan, "MinMax preselection") {
		t.Fatalf("plan missing represent line:\n%s", plan)
	}
}
