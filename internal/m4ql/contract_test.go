package m4ql

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"m4lsm/internal/faultfs"
	"m4lsm/internal/govern"
	"m4lsm/internal/lsm"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
	"m4lsm/internal/tsfile"
)

// contractStore writes two series whose chunks every form must load from
// (span boundaries cut chunks, a delete refutes metadata) and closes the
// store, so each case can reopen it under its own fault mode.
func contractStore(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	e, err := lsm.Open(lsm.Options{Dir: dir, DisablePyramid: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b"} {
		for i := 0; i < 200; i++ {
			if err := e.Write(id, series.Point{T: int64(i * 5), V: float64((i * 13) % 31)}); err != nil {
				t.Fatal(err)
			}
			if i%20 == 19 {
				e.Flush()
			}
		}
		if err := e.Delete(id, 200, 400); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// onlySeries applies a fault wrapper to one series' chunks and leaves the
// rest of the store clean.
type onlySeries struct {
	id            string
	faulty, clean storage.ChunkSource
}

func (s onlySeries) pick(m storage.ChunkMeta) storage.ChunkSource {
	if m.SeriesID == s.id {
		return s.faulty
	}
	return s.clean
}
func (s onlySeries) ReadChunk(m storage.ChunkMeta) (series.Columns, error) {
	return s.pick(m).ReadChunk(m)
}
func (s onlySeries) ReadTimes(m storage.ChunkMeta) ([]int64, error) { return s.pick(m).ReadTimes(m) }
func (s onlySeries) ReadValues(m storage.ChunkMeta) ([]float64, error) {
	return s.pick(m).ReadValues(m)
}

// contractForms are the statement forms TestReadContract holds to one
// contract: every form and operator a Statement can select, and EXPLAIN.
var contractForms = []struct{ name, head, sel, tail string }{
	{"m4", "", "M4(*)", ""},
	{"m4-udf", "", "M4(*)", " USING UDF"},
	{"represent-minmax", "", "M4(*)", " REPRESENT minmax"},
	{"represent-lttb", "", "M4(*)", " REPRESENT lttb"},
	{"represent-udf", "", "M4(*)", " REPRESENT lttb USING UDF"},
	{"groupby-merge", "", "COUNT(v), AVG(v)", ""},
	{"groupby-envelope", "", "MIN(v), MAX(v)", ""},
	// EXPLAIN runs the statement too: a degraded read must show in the
	// plan, or it prices a partial answer as a whole one.
	{"explain", "EXPLAIN ", "M4(*)", ""},
}

// TestReadContract runs the same degrade / strict / budget / timeout /
// cancel / quarantine cases over every statement form and its EXPLAIN, one
// series and two:
// since all of them go through Read, the outcome must not depend on the
// form. GROUP BY used to ignore every one of these.
func TestReadContract(t *testing.T) {
	dir := contractStore(t)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	capped := govern.Limits{MaxChunks: 1}
	cases := []struct {
		name   string
		faults faultfs.Config // chunk-read faults of series a (zero: none)
		ctx    context.Context
		limits govern.Limits // merged into the statement, as a server's defaults are
		clause string
		// spans replaces the statement's SPANS(7); closed runs it on a
		// closed engine, where any read that takes a snapshot fails.
		spans  int
		closed bool
		// Exactly one expectation: wantErr (errors.Is), wantErrText, or
		// partial (which series blocks must be flagged; the clean series
		// of a two-series statement must not be).
		wantErr     error
		wantErrText string
		partial     bool
		// namesA: the error of FROM a, b must name series a, the one the
		// faults hit.
		namesA bool
	}{
		{name: "clean", ctx: context.Background()},
		{name: "degrade", faults: faultfs.Config{Seed: 1, ErrRate: 1}, ctx: context.Background(), partial: true},
		{name: "strict", faults: faultfs.Config{Seed: 1, ErrRate: 1}, ctx: context.Background(), clause: " STRICT", wantErr: faultfs.ErrInjected, namesA: true},
		{name: "budget", ctx: context.Background(), limits: capped, partial: true},
		{name: "budget-strict", ctx: context.Background(), limits: capped, clause: " STRICT", wantErr: govern.ErrBudgetExceeded},
		// Every read of series a sleeps past the 1 ms clause, so the second
		// chunk charge finds the deadline gone.
		{name: "timeout", faults: faultfs.Config{Seed: 1, SlowRate: 1, Latency: 5 * time.Millisecond}, ctx: context.Background(), clause: " TIMEOUT 1", partial: true},
		{name: "timeout-strict", faults: faultfs.Config{Seed: 1, SlowRate: 1, Latency: 5 * time.Millisecond}, ctx: context.Background(), clause: " TIMEOUT 1 STRICT", wantErr: govern.ErrBudgetExceeded},
		{name: "cancel", ctx: cancelled, wantErr: context.Canceled},
		// FlipRate models detected corruption: the first lenient read
		// quarantines series a's chunks, later snapshots exclude them.
		{name: "quarantined", faults: faultfs.Config{Seed: 1, FlipRate: 1}, ctx: context.Background(), partial: true},
		{name: "quarantined-strict", faults: faultfs.Config{Seed: 1, FlipRate: 1}, ctx: context.Background(), clause: " STRICT", wantErrText: "strict read", namesA: true},
		// Refused before any snapshot: on the closed engine a statement
		// that got as far as a snapshot, let alone a plan, fails otherwise.
		{name: "too-many-spans", ctx: context.Background(), spans: 1 << 30, closed: true, wantErr: ErrTooManySpans},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := lsm.Open(lsm.Options{Dir: dir, DisablePyramid: true, WrapSource: func(src storage.ChunkSource) storage.ChunkSource {
				if tc.faults == (faultfs.Config{}) {
					return src
				}
				faulty := faultfs.Wrap(src, faultfs.NewInjector(tc.faults))
				faulty.CorruptErr = tsfile.ErrCorrupt
				return onlySeries{id: "a", faulty: faulty, clean: src}
			}})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			if tc.faults.FlipRate > 0 {
				if _, err := Run(e, `SELECT M4(*) FROM a WHERE time >= 0 AND time < 1000 GROUP BY SPANS(7) USING UDF`); err != nil {
					t.Fatalf("quarantining read: %v", err)
				}
				if e.Info().QuarantinedChunks == 0 {
					t.Fatal("corrupt reads quarantined nothing")
				}
			}
			spans := 7
			if tc.spans != 0 {
				spans = tc.spans
			}
			if tc.closed {
				e.Close()
			}
			for _, form := range contractForms {
				for _, from := range []string{"a", "a, b"} {
					q := fmt.Sprintf(`%sSELECT %s FROM %s WHERE time >= 0 AND time < 1000 GROUP BY SPANS(%d)%s%s`,
						form.head, form.sel, from, spans, form.tail, tc.clause)
					res, plan, err := runLimited(tc.ctx, e, q, tc.limits)
					if tc.namesA && from == "a, b" && (err == nil || !strings.Contains(err.Error(), `series "a"`)) {
						t.Errorf("%s FROM a, b: err = %v, want it to name series \"a\"", form.name, err)
					}
					switch {
					case tc.wantErr != nil:
						if !errors.Is(err, tc.wantErr) {
							t.Errorf("%s FROM %s: err = %v, want %v", form.name, from, err, tc.wantErr)
						}
						continue
					case tc.wantErrText != "":
						if err == nil || !strings.Contains(err.Error(), tc.wantErrText) {
							t.Errorf("%s FROM %s: err = %v, want %q", form.name, from, err, tc.wantErrText)
						}
						continue
					case err != nil:
						t.Errorf("%s FROM %s: %v", form.name, from, err)
						continue
					case res == nil:
						if strings.Contains(plan, "\npartial: ") != tc.partial {
							t.Errorf("%s FROM %s: plan shows partial=%v, want %v:\n%s", form.name, from, !tc.partial, tc.partial, plan)
						}
						continue
					}
					if res.Partial != tc.partial || (len(res.Warnings) > 0) != tc.partial {
						t.Errorf("%s FROM %s: partial=%v warnings=%d, want partial=%v",
							form.name, from, res.Partial, len(res.Warnings), tc.partial)
					}
					if from == "a" {
						if len(res.Series) != 0 || (!tc.partial && len(res.Rows) == 0) {
							t.Errorf("%s FROM a: not the flat shape: %d rows, %d series", form.name, len(res.Rows), len(res.Series))
						}
						continue
					}
					if len(res.Series) != 2 || res.Rows != nil {
						t.Fatalf("%s FROM a, b: not the series shape: %d rows, %d series", form.name, len(res.Rows), len(res.Series))
					}
					// The budget is the statement's, so which series it
					// runs out on is scheduling; faults hit series a only.
					if a := res.Series[0]; tc.faults != (faultfs.Config{}) && tc.faults.SlowRate == 0 && a.Partial != tc.partial {
						t.Errorf("%s FROM a, b: series a partial=%v, want %v", form.name, a.Partial, tc.partial)
					}
					if b := res.Series[1]; tc.limits != capped && tc.faults.SlowRate == 0 && (b.Partial || len(b.Rows) == 0) {
						t.Errorf("%s FROM a, b: clean series b partial=%v rows=%d", form.name, b.Partial, len(b.Rows))
					}
				}
			}
		})
	}
}

// runLimited is RunAny with limits merged into the statement's own, the
// way a server applies its per-query defaults.
func runLimited(ctx context.Context, e *lsm.Engine, query string, limits govern.Limits) (*Result, string, error) {
	stmt, err := Parse(query)
	if err != nil {
		return nil, "", err
	}
	stmt.Limits = stmt.Limits.Merge(limits)
	if stmt.Explain {
		plan, err := Explain(ctx, e, stmt)
		return nil, plan, err
	}
	res, err := ExecuteContext(ctx, e, stmt)
	return res, "", err
}
