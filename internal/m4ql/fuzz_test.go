package m4ql

import (
	"testing"

	"m4lsm/internal/reprops"
)

// FuzzParse throws arbitrary bytes at the full query parser. The invariant
// is no panic, and for inputs that do parse, a self-consistent statement:
// a valid query range, a REPRESENT spec that round-trips through its own
// string form, and no aggregate/represent mixing (rejected at parse time).
func FuzzParse(f *testing.F) {
	seeds := []string{
		`SELECT M4(*) FROM root.kob WHERE time >= 0 AND time < 1000 GROUP BY SPANS(10) USING LSM`,
		`SELECT M4(*) FROM root.* WHERE time >= 0 AND time < 1000 GROUP BY SPANS(10) REPRESENT minmax`,
		`SELECT M4(*) FROM s WHERE time >= 0 AND time < 100 GROUP BY SPANS(7) REPRESENT minmaxlttb:8 PARALLEL 2 TIMEOUT 100 STRICT TRACE`,
		`SELECT M4(*) FROM s WHERE time >= 0 AND time < 100 GROUP BY SPANS(7) REPRESENT lttb USING UDF`,
		`SELECT M4(*) FROM s WHERE time >= 0 AND time < 100 GROUP BY SPANS(7) REPRESENT minmaxlttb:`,
		`SELECT M4(*) FROM s WHERE time >= 0 AND time < 100 GROUP BY SPANS(7) REPRESENT minmaxlttb:999`,
		`SELECT M4(*) FROM s WHERE time >= 0 AND time < 100 GROUP BY SPANS(7) REPRESENT nope`,
		`SELECT COUNT(v), AVG(v) FROM s WHERE time >= 0 AND time < 100 GROUP BY SPANS(7)`,
		`EXPLAIN SELECT FirstTime(v), TopValue(v) FROM "quoted id" WHERE time >= -5 AND time < 5 GROUP BY SPANS(1)`,
		`SELECT M4(*) FROM a, b, c WHERE time < 10 AND time >= 2 GROUP BY SPANS(1) REPRESENT m4`,
		// Parses; Read refuses it with ErrTooManySpans before any snapshot.
		`SELECT M4(*) FROM root.* WHERE time >= 0 AND time < 1000 GROUP BY SPANS(1073741824)`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		stmt, err := Parse(input)
		if err != nil {
			return
		}
		if err := stmt.Query.Validate(); err != nil {
			t.Fatalf("accepted statement with invalid query %+v: %v", stmt.Query, err)
		}
		if stmt.Represent != nil {
			if len(stmt.Aggregates) > 0 {
				t.Fatalf("accepted REPRESENT mixed with aggregates: %q", input)
			}
			// The spec must survive its own textual form.
			back, err := reprops.ParseSpec(stmt.Represent.String())
			if err != nil {
				t.Fatalf("accepted spec %+v does not round-trip: %v", *stmt.Represent, err)
			}
			if back != *stmt.Represent {
				t.Fatalf("spec %+v round-tripped to %+v", *stmt.Represent, back)
			}
		}
	})
}
