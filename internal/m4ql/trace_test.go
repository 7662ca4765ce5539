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

// TestExecuteTrace checks the trace contract both operators share: per-task
// timings whose exact sum is TaskTotalNs, sequential phases, and the I/O
// counters of the query.
func TestExecuteTrace(t *testing.T) {
	e := traceEngine(t)
	for _, op := range []string{"LSM", "UDF"} {
		res, err := Run(e, `SELECT M4(*) FROM s WHERE time >= 0 AND time < 1000 GROUP BY SPANS(4) USING `+op+` TRACE`)
		if err != nil {
			t.Fatal(err)
		}
		tr := res.Trace
		if tr == nil {
			t.Fatalf("%s: no trace on TRACE query", op)
		}
		if tr.ID == "" || tr.ElapsedNs <= 0 {
			t.Errorf("%s: trace header = %+v", op, tr)
		}
		if len(tr.Tasks) == 0 || len(tr.Phases) == 0 {
			t.Fatalf("%s: trace empty: %d tasks, %d phases", op, len(tr.Tasks), len(tr.Phases))
		}
		sum := int64(0)
		for _, task := range tr.Tasks {
			sum += task.Ns
		}
		if sum != tr.TaskTotalNs {
			t.Errorf("%s: task sum %d != TaskTotalNs %d", op, sum, tr.TaskTotalNs)
		}
		if tr.Counters["chunksLoaded"]+tr.Counters["chunksPruned"] == 0 {
			t.Errorf("%s: no chunk accounting in counters: %v", op, tr.Counters)
		}
	}
}

// TestExecuteTraceLSMTasks checks the M4-LSM task decomposition: each
// non-empty span contributes exactly one task per representation function.
func TestExecuteTraceLSMTasks(t *testing.T) {
	e := traceEngine(t)
	res, err := Run(e, `SELECT M4(*) FROM s WHERE time >= 0 AND time < 1000 GROUP BY SPANS(4) USING LSM TRACE`)
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		span int
		g    string
	}
	seen := map[key]int{}
	for _, task := range res.Trace.Tasks {
		seen[key{task.Span, task.G}]++
	}
	for span := 0; span < 4; span++ {
		for _, g := range []string{"FP", "LP", "BP", "TP"} {
			if n := seen[key{span, g}]; n != 1 {
				t.Errorf("span %d %s: %d tasks, want 1", span, g, n)
			}
		}
	}
	if len(seen) != 16 {
		t.Errorf("distinct tasks = %d, want 16", len(seen))
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
	if res.Trace == nil || len(res.Trace.Tasks) == 0 {
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
	for _, want := range []string{`"trace"`, `"taskTotalNs"`, `"tasks"`, `"g":"FP"`} {
		if !strings.Contains(got, want) {
			t.Errorf("result JSON missing %s", want)
		}
	}
}

// TestExecuteGroupByTrace: the aggregate form attaches a trace too (phase
// plus counters; the group-by scan has no per-task decomposition).
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
