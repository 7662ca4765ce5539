package m4ql

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"m4lsm/internal/lsm"
	"m4lsm/internal/obs"
	"m4lsm/internal/series"
)

func traceEngine(t *testing.T) *lsm.Engine {
	t.Helper()
	e := newEngine(t)
	for i := 0; i < 200; i++ {
		if err := e.Write("s", series.Point{T: int64(i * 5), V: float64((i * 13) % 31)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestParseTraceClause(t *testing.T) {
	stmt, err := Parse(`SELECT M4(*) FROM s WHERE time >= 0 AND time < 1000 GROUP BY SPANS(4) TRACE`)
	if err != nil {
		t.Fatal(err)
	}
	if !stmt.Trace {
		t.Error("TRACE clause not parsed")
	}
	// Order-independent with the other trailing clauses.
	stmt, err = Parse(`SELECT M4(*) FROM s WHERE time >= 0 AND time < 1000 GROUP BY SPANS(4) TRACE USING UDF STRICT`)
	if err != nil {
		t.Fatal(err)
	}
	if !stmt.Trace || stmt.Operator != OpUDF || !stmt.Strict {
		t.Errorf("stmt = %+v", stmt)
	}
	if _, err := Parse(`SELECT M4(*) FROM s WHERE time >= 0 AND time < 1000 GROUP BY SPANS(4) TRACE TRACE`); err == nil {
		t.Error("duplicate TRACE accepted")
	}
	// Without the clause, tracing stays off.
	stmt, err = Parse(`SELECT M4(*) FROM s WHERE time >= 0 AND time < 1000 GROUP BY SPANS(4)`)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Trace {
		t.Error("Trace set without clause")
	}
}

// TestExecuteTrace checks the trace contract every operator shares: its
// phases in order, summing to no more than the elapsed time, and the I/O
// counters of the query.
func TestExecuteTrace(t *testing.T) {
	e := traceEngine(t)
	for _, tc := range []struct{ tail, phases string }{
		{" USING LSM", "plan wave-fp wave-rest assemble"},
		{" USING UDF", "load scan"},
		{" REPRESENT minmax USING UDF", "load reduce"},
		{" REPRESENT lttb", "load select"},
	} {
		res, err := Run(e, `SELECT M4(*) FROM s WHERE time >= 0 AND time < 1000 GROUP BY SPANS(4)`+tc.tail+` TRACE`)
		if err != nil {
			t.Fatal(err)
		}
		tr := res.Trace
		if tr == nil {
			t.Fatalf("%s: no trace on TRACE query", tc.tail)
		}
		if tr.ID == "" || tr.ElapsedNs <= 0 {
			t.Errorf("%s: trace header = %+v", tc.tail, tr)
		}
		var names []string
		sum := int64(0)
		for _, ph := range tr.Phases {
			names, sum = append(names, ph.Name), sum+ph.Ns
		}
		if got := strings.Join(names, " "); got != tc.phases {
			t.Errorf("%s: phases %q, want %q", tc.tail, got, tc.phases)
		}
		if sum > tr.ElapsedNs {
			t.Errorf("%s: phases sum to %d ns, more than the %d ns elapsed", tc.tail, sum, tr.ElapsedNs)
		}
		if tr.Counters["chunksLoaded"]+tr.Counters["chunksPruned"] == 0 {
			t.Errorf("%s: no chunk accounting in counters: %v", tc.tail, tr.Counters)
		}
	}
}

// TestTraceSizeIndependentOfTasks: a trace holds phases and counters, not
// one entry per (span, G) task, so a thousand spans over 20,000 unpyramided
// points trace in under 2 KiB.
func TestTraceSizeIndependentOfTasks(t *testing.T) {
	e, err := lsm.Open(lsm.Options{Dir: t.TempDir(), DisablePyramid: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 20000; i++ {
		if err := e.Write("s", series.Point{T: int64(i), V: float64(i % 97)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(e, `SELECT M4(*) FROM s WHERE time >= 0 AND time < 20000 GROUP BY SPANS(1000) TRACE`)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) >= 2048 {
		t.Errorf("trace is %d bytes, want under 2 KiB", len(b))
	}
}

func TestExecuteWithoutTraceHasNone(t *testing.T) {
	e := traceEngine(t)
	res, err := Run(e, `SELECT M4(*) FROM s WHERE time >= 0 AND time < 1000 GROUP BY SPANS(4)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Errorf("trace present without TRACE clause: %+v", res.Trace)
	}
}

// TestExecuteContextArmedTrace: an armed trace on the context is used even
// without a TRACE clause (the HTTP layer's ?trace=1).
func TestExecuteContextArmedTrace(t *testing.T) {
	e := traceEngine(t)
	ctx, _ := obs.WithTrace(context.Background())
	res, err := RunContext(ctx, e, `SELECT M4(*) FROM s WHERE time >= 0 AND time < 1000 GROUP BY SPANS(4)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || len(res.Trace.Phases) == 0 {
		t.Fatal("context-armed trace not attached")
	}
}

// TestExecuteTraceJSON: the trace round-trips through the result's JSON
// form under the "trace" key.
func TestExecuteTraceJSON(t *testing.T) {
	e := traceEngine(t)
	res, err := Run(e, `SELECT M4(*) FROM s WHERE time >= 0 AND time < 1000 GROUP BY SPANS(4) TRACE`)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	got := string(b)
	for _, want := range []string{`"trace"`, `"phases"`, `"name":"wave-fp"`} {
		if !strings.Contains(got, want) {
			t.Errorf("result JSON missing %s", want)
		}
	}
}

// TestExecuteGroupByTrace: the aggregate form attaches a trace too (phase
// plus counters).
func TestExecuteGroupByTrace(t *testing.T) {
	e := traceEngine(t)
	res, err := Run(e, `SELECT COUNT(v), AVG(v) FROM s WHERE time >= 0 AND time < 1000 GROUP BY SPANS(4) TRACE`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || len(res.Trace.Phases) == 0 {
		t.Fatal("group-by trace missing")
	}
}

// TestTraceCountsEverySeries: a multi-series statement's trace carries the
// I/O of every series, the same sums as the result's Stats, on every form.
func TestTraceCountsEverySeries(t *testing.T) {
	e, err := lsm.Open(lsm.Options{Dir: contractStore(t), DisablePyramid: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, form := range contractForms {
		if form.head != "" {
			continue // EXPLAIN returns a plan, not a traced result
		}
		q := `SELECT ` + form.sel + ` FROM a, b WHERE time >= 0 AND time < 1000 GROUP BY SPANS(7)` + form.tail + ` TRACE`
		res, err := Run(e, q)
		if err != nil {
			t.Fatalf("%s: %v", form.name, err)
		}
		c := res.Trace.Counters
		if res.Stats.ChunksLoaded == 0 || c["chunksLoaded"] != res.Stats.ChunksLoaded || c["pointsDecoded"] != res.Stats.PointsDecoded {
			t.Errorf("%s: trace chunksLoaded %d pointsDecoded %d, Stats %d and %d",
				form.name, c["chunksLoaded"], c["pointsDecoded"], res.Stats.ChunksLoaded, res.Stats.PointsDecoded)
		}
	}
}
