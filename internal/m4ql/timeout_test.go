package m4ql

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"m4lsm/internal/govern"
	"m4lsm/internal/series"
)

func TestParseTimeoutClause(t *testing.T) {
	for _, q := range []string{
		`SELECT M4(*) FROM s WHERE time >= 0 AND time < 100 GROUP BY SPANS(4) TIMEOUT 250`,
		`SELECT M4(*) FROM s WHERE time >= 0 AND time < 100 GROUP BY SPANS(4) TIMEOUT 250 USING UDF`,
		`SELECT M4(*) FROM s WHERE time >= 0 AND time < 100 GROUP BY SPANS(4) STRICT TIMEOUT 250 PARALLEL 2`,
	} {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if stmt.Limits != (govern.Limits{Timeout: 250 * time.Millisecond}) {
			t.Errorf("%s: limits = %+v", q, stmt.Limits)
		}
	}
	if stmt, err := Parse(`SELECT M4(*) FROM s WHERE time >= 0 AND time < 100 GROUP BY SPANS(4)`); err != nil || stmt.Limits != (govern.Limits{}) {
		t.Errorf("absent clause: stmt=%+v err=%v", stmt, err)
	}
	bad := []string{
		`SELECT M4(*) FROM s WHERE time >= 0 AND time < 100 GROUP BY SPANS(4) TIMEOUT 0`,
		`SELECT M4(*) FROM s WHERE time >= 0 AND time < 100 GROUP BY SPANS(4) TIMEOUT -5`,
		`SELECT M4(*) FROM s WHERE time >= 0 AND time < 100 GROUP BY SPANS(4) TIMEOUT`,
		`SELECT M4(*) FROM s WHERE time >= 0 AND time < 100 GROUP BY SPANS(4) TIMEOUT 5 TIMEOUT 5`,
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("accepted: %s", q)
		}
	}
}

// TestExecuteTimeoutAndBudget: a generous TIMEOUT changes nothing; the
// statement's limits (where a server merges its defaults) cap the query,
// degrading it in lenient mode and failing it typed under STRICT.
func TestExecuteTimeoutAndBudget(t *testing.T) {
	e := newEngine(t)
	for i := 0; i < 200; i++ {
		e.Write("s", series.Point{T: int64(i * 5), V: float64((i * 13) % 31)})
		if i%20 == 19 {
			e.Flush() // many small overlapping-era chunks
		}
	}
	e.Flush()
	e.Delete("s", 200, 400)

	base, err := Run(e, `SELECT M4(*) FROM s WHERE time >= 0 AND time < 1000 GROUP BY SPANS(7)`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(e, `SELECT M4(*) FROM s WHERE time >= 0 AND time < 1000 GROUP BY SPANS(7) TIMEOUT 60000`)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Rows, base.Rows) {
		t.Error("generous TIMEOUT changed the result")
	}

	// Server-wide defaults arrive merged into the statement.
	capped := func(q string) (*Result, error) {
		stmt, err := ParseQuery(q)
		if err != nil {
			return nil, err
		}
		stmt.Limits = stmt.Limits.Merge(govern.Limits{MaxChunks: 1})
		return ExecuteContext(context.Background(), e, stmt)
	}
	res, err = capped(`SELECT M4(*) FROM s WHERE time >= 0 AND time < 1000 GROUP BY SPANS(7)`)
	if err != nil {
		t.Fatalf("lenient budgeted query must degrade, not fail: %v", err)
	}
	if !res.Partial || len(res.Warnings) == 0 {
		t.Fatalf("budget-capped query not marked partial (partial=%v warnings=%d)", res.Partial, len(res.Warnings))
	}
	for _, w := range res.Warnings {
		if !strings.Contains(w, "budget") && !strings.Contains(w, "unreadable") {
			t.Fatalf("unexpected warning shape: %q", w)
		}
	}

	_, err = capped(`SELECT M4(*) FROM s WHERE time >= 0 AND time < 1000 GROUP BY SPANS(7) STRICT`)
	if !errors.Is(err, govern.ErrBudgetExceeded) {
		t.Fatalf("strict budget-capped query: got %v, want ErrBudgetExceeded", err)
	}
}
