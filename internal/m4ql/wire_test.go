package m4ql

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"m4lsm/internal/govern"
	"m4lsm/internal/groupby"
	"m4lsm/internal/m4"
	"m4lsm/internal/obs"
	"m4lsm/internal/reprops"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
)

// TestAppendJSONMatchesEncodingJSON runs every statement form through
// Outcome.AppendJSON and through encoding/json's encoding of its Result,
// over epoch-millisecond data (|t| < 2^53) whose values reach the 'e'
// format's edges, and requires the same bytes: M4(*), column lists, GROUP
// BY functions, each REPRESENT operator, explicit and wildcard
// multi-series statements, USING UDF, a partial answer with warnings,
// TRACE, and empty answers, whose rows are null for a span table and []
// for REPRESENT.
func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	e := newEngine(t)
	const base = 1_700_000_000_000
	values := []float64{0, math.Copysign(0, -1), 1e-7, -9.5e-7, 1e-6, 1e21, -2.5e21, 9.99e20, 5e-324, 1.5, -123.456}
	rng := rand.New(rand.NewSource(1))
	for _, id := range []string{"root.a", "root.b", "root.<&>"} {
		for i := 0; i < 3000; i++ {
			v := values[rng.Intn(len(values))]
			if i%3 == 0 {
				v = rng.NormFloat64() * 1e3
			}
			if err := e.Write(id, series.Point{T: base + int64(i)*7 + int64(rng.Intn(7)), V: v}); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Delete(id, base+700, base+1400); err != nil {
			t.Fatal(err)
		}
	}
	window := " WHERE time >= 1700000000000 AND time < 1700000021000 GROUP BY SPANS(50)"
	empty := " WHERE time >= 0 AND time < 1000 GROUP BY SPANS(5)"
	forms := []struct {
		name, query string
		limits      govern.Limits
	}{
		{"m4", "SELECT M4(*) FROM root.a" + window, govern.Limits{}},
		{"columns", "SELECT FirstTime(v), TopValue(v), BottomTime(v), LastValue(v) FROM root.a" + window, govern.Limits{}},
		{"groupby", "SELECT COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v), FIRST(v), LAST(v) FROM root.a" + window, govern.Limits{}},
		{"represent-m4", "SELECT M4(*) FROM root.a" + window + " REPRESENT m4", govern.Limits{}},
		{"represent-minmax", "SELECT M4(*) FROM root.a" + window + " REPRESENT minmax", govern.Limits{}},
		{"represent-lttb", "SELECT M4(*) FROM root.a" + window + " REPRESENT lttb", govern.Limits{}},
		{"represent-minmaxlttb", "SELECT M4(*) FROM root.a" + window + " REPRESENT minmaxlttb:4", govern.Limits{}},
		{"from-list", "SELECT M4(*) FROM root.a, root.b" + window, govern.Limits{}},
		{"wildcard", "SELECT M4(*) FROM root.*" + window, govern.Limits{}},
		{"wildcard-groupby", "SELECT COUNT(v), AVG(v) FROM root.*" + window, govern.Limits{}},
		{"wildcard-represent", "SELECT M4(*) FROM root.*" + window + " REPRESENT lttb", govern.Limits{}},
		{"udf", "SELECT M4(*) FROM root.a" + window + " USING UDF", govern.Limits{}},
		{"partial", "SELECT M4(*) FROM root.a" + window, govern.Limits{MaxChunks: 1}},
		{"partial-multi", "SELECT M4(*) FROM root.a, root.b" + window, govern.Limits{MaxChunks: 1}},
		{"trace", "SELECT M4(*) FROM root.a" + window + " TRACE", govern.Limits{}},
		{"empty", "SELECT M4(*) FROM root.a" + empty, govern.Limits{}},
		{"empty-groupby", "SELECT COUNT(v) FROM root.a" + empty, govern.Limits{}},
		{"empty-represent", "SELECT M4(*) FROM root.a" + empty + " REPRESENT minmax", govern.Limits{}},
		{"empty-multi", "SELECT M4(*) FROM root.a, root.b" + empty, govern.Limits{}},
		{"empty-wildcard", "SELECT M4(*) FROM nothing.*" + window, govern.Limits{}},
	}
	for _, f := range forms {
		t.Run(f.name, func(t *testing.T) {
			stmt := mustParse(t, f.query)
			stmt.Limits = f.limits
			o, err := Exec(context.Background(), e, stmt)
			if err != nil {
				t.Fatal(err)
			}
			if f.limits != (govern.Limits{}) && !o.Partial {
				t.Fatal("the budget left the answer whole; the case tests nothing")
			}
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(o.Result()); err != nil {
				t.Fatal(err)
			}
			got, err := o.AppendJSON([]byte("prefix"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(got, []byte("prefix")) || !bytes.Equal(got[len("prefix"):], want.Bytes()) {
				t.Fatalf("AppendJSON differs from encoding/json:\n got %s\nwant %s", got, want.Bytes())
			}
		})
	}
}

// FuzzQueryJSON builds random outcomes of every form, with times anywhere
// in int64 and values at float formatting's edges (-0, subnormals, 1e-7
// and 1e21 around the switch to exponent form), and series ids and
// warnings of arbitrary bytes. AppendJSON must fail exactly when
// encoding/json fails (a non-finite value); when every time lies within
// ±2^53 its bytes must equal json.Marshal of the Result plus a newline; and
// at any time, decoding with UseNumber must give back every time and span
// index exactly.
func FuzzQueryJSON(f *testing.F) {
	f.Add(uint8(0), int64(1_700_000_000_000), int64(1000), 1.5, uint64(1), "root.s", "")
	f.Add(uint8(1), int64(1)<<60+1, int64(3), 1e-7, uint64(2), "root.<&>", "chunk 3:   bad\xff")
	f.Add(uint8(2), int64(math.MinInt64), int64(math.MaxInt64/4), 1e21, uint64(3), "a\"b", "w")
	f.Add(uint8(3), int64(-1)<<53, int64(1), math.Copysign(0, -1), uint64(4), "s", "\t\n")
	f.Add(uint8(4), int64(9_007_199_254_740_991), int64(2), 5e-324, uint64(5), "s", "")
	f.Add(uint8(5), int64(0), int64(7), math.Inf(1), uint64(6), "s", "x")
	f.Fuzz(func(t *testing.T, form uint8, t0, step int64, v float64, seed uint64, id, warning string) {
		o, times := fuzzOutcome(form, t0, step, v, seed, id, warning)
		want, wantErr := json.Marshal(o.Result())
		got, err := o.AppendJSON(nil)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("AppendJSON error %v, encoding/json error %v", err, wantErr)
		}
		if err != nil {
			if len(got) != 0 {
				t.Fatalf("a failed encoding returned %q", got)
			}
			return
		}
		exact := true
		for _, rows := range times {
			for _, row := range rows {
				for _, tv := range row {
					exact = exact && tv > -1<<53 && tv < 1<<53
				}
			}
		}
		if want = append(want, '\n'); exact && !bytes.Equal(got, want) {
			t.Fatalf("AppendJSON differs from encoding/json:\n got %s\nwant %s", got, want)
		}
		var back struct {
			Rows   [][]json.Number `json:"rows"`
			Series []struct {
				Rows [][]json.Number `json:"rows"`
			} `json:"series"`
		}
		dec := json.NewDecoder(bytes.NewReader(got))
		dec.UseNumber()
		if err := dec.Decode(&back); err != nil {
			t.Fatalf("%v: %s", err, got)
		}
		blocks := [][][]json.Number{back.Rows}
		if o.stmt.Multi() {
			blocks = blocks[:0]
			for _, s := range back.Series {
				blocks = append(blocks, s.Rows)
			}
		}
		at := timeColumns(o.stmt)
		for b, rows := range blocks {
			if len(rows) != len(times[b]) {
				t.Fatalf("block %d: %d rows, want %d", b, len(rows), len(times[b]))
			}
			for r, row := range rows {
				for k, c := range at {
					if n, err := row[c].Int64(); err != nil || n != times[b][r][k] {
						t.Fatalf("block %d row %d column %d reads %s, want %d", b, r, c, row[c], times[b][r][k])
					}
				}
			}
		}
	})
}

// fuzzOutcome builds one outcome from the fuzzer's inputs, and lists per
// series, row by row, the integers its time columns must read back.
func fuzzOutcome(form uint8, t0, step int64, v float64, seed uint64, id, warning string) (*Outcome, [][][]int64) {
	// splitmix64: a generator cheap enough to keep the fuzzer's
	// minimization of interesting inputs short.
	next := func() uint64 {
		seed += 0x9e3779b97f4a7c15
		z := (seed ^ seed>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return z ^ z>>31
	}
	intn := func(n int) int { return int(next() % uint64(n)) }
	edges := []float64{v, math.Copysign(0, -1), 5e-324, 2.2250738585072014e-308, 1e-7, 9.99999e-7, 1e-6,
		1e20, 9.99999e20, 1e21, -1e21, 1.7976931348623157e308, 0.1, -3}
	value := func() float64 {
		if intn(4) == 0 {
			return math.Float64frombits(next()) // any float64, NaN and ±Inf included
		}
		return edges[intn(len(edges))]
	}
	at := func(i int) int64 { return t0 + int64(i)*step } // wraps at the ends of int64
	stmt := Statement{Columns: AllColumns(), Series: []string{id}, SeriesID: id,
		Query: m4.Query{Tqs: min(t0, t0+step), Tqe: max(t0, t0+step) + 1, W: 1 + intn(8)}}
	multi := form&8 != 0
	if multi {
		stmt.Series = append(stmt.Series, id+".2")
	}
	switch form % 4 {
	case 1:
		stmt.Columns = []Column{ColTopTime, ColFirstValue, ColLastTime, ColBottomValue}[:1+intn(4)]
	case 2:
		stmt.Aggregates = []groupby.Func{groupby.Count, groupby.Avg, groupby.Max}[:1+intn(3)]
	case 3:
		stmt.Represent = &reprops.Spec{Kind: reprops.Kind(intn(4)), Ratio: intn(3)}
	}
	o := &Outcome{Operator: "LSM", Elapsed: 12345, stmt: stmt, Stats: storage.Stats{ChunksLoaded: 3, PyramidFallbackSpans: -1}}
	if form&16 != 0 {
		o.Trace = &obs.Snapshot{ID: warning, ElapsedNs: 7, Counters: map[string]int64{id: 1}}
	}
	var times [][][]int64
	for s, sid := range stmt.Series {
		out := SeriesOutput{SeriesID: sid, Stats: storage.Stats{BytesRead: int64(s)}}
		if form&32 != 0 && warning != "" {
			out.Warnings = []string{warning}
			o.Warnings = append(o.Warnings, "series "+sid+": "+warning)
		}
		var rows [][]int64
		switch n := intn(stmt.Query.W + 1); {
		case stmt.Represent != nil:
			for i := range n {
				out.Points = append(out.Points, series.Point{T: at(i), V: value()})
				rows = append(rows, []int64{at(i)})
			}
		case len(stmt.Aggregates) > 0:
			for i := range n {
				g := groupby.Row{Span: i}
				for range stmt.Aggregates {
					g.Values = append(g.Values, value())
				}
				out.Groups = append(out.Groups, g)
				rows = append(rows, []int64{int64(i)})
			}
		default:
			for i := range stmt.Query.W {
				p := func(k int) series.Point { return series.Point{T: at(4*i + k), V: value()} }
				a := m4.Aggregate{First: p(0), Last: p(1), Bottom: p(2), Top: p(3), Empty: intn(3) == 0}
				out.Aggregates = append(out.Aggregates, a)
				if a.Empty {
					continue
				}
				row := []int64{int64(i)}
				for _, c := range stmt.Columns {
					if strings.HasSuffix(c.String(), "Time") {
						row = append(row, map[Column]int64{ColFirstTime: a.First.T, ColLastTime: a.Last.T,
							ColBottomTime: a.Bottom.T, ColTopTime: a.Top.T}[c])
					}
				}
				rows = append(rows, row)
			}
		}
		o.Outputs = append(o.Outputs, out)
		times = append(times, rows)
	}
	if !multi {
		o.Warnings = o.Outputs[0].Warnings
	}
	o.Partial = len(o.Warnings) > 0
	return o, times
}

// timeColumns lists the row positions that hold integers: the span index
// or the point's time first, then each projected time column.
func timeColumns(stmt Statement) []int {
	at := []int{0}
	if stmt.Represent == nil && len(stmt.Aggregates) == 0 {
		for i, c := range stmt.Columns {
			if strings.HasSuffix(c.String(), "Time") {
				at = append(at, 1+i)
			}
		}
	}
	return at
}
