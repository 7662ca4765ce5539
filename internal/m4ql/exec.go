package m4ql

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"m4lsm/internal/govern"
	"m4lsm/internal/groupby"
	"m4lsm/internal/lsm"
	"m4lsm/internal/m4"
	"m4lsm/internal/m4lsm"
	"m4lsm/internal/m4udf"
	"m4lsm/internal/obs"
	"m4lsm/internal/reprops"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
)

// Result is the tabular output of an executed M4 query, for in-process
// callers (the root package's DB.QueryContext, m4cli, EXPLAIN) and as the
// type a /query answer decodes into. Rows are one per non-empty span: the
// 0-based span index followed by the projected columns. Rows hold times as
// float64, exact for |t| < 2^53 (epoch milliseconds; not epoch
// nanoseconds). The /query wire is exact at any time: Outcome.AppendJSON
// writes times as int64, in these same JSON fields.
type Result struct {
	Columns []string    `json:"columns"`
	Rows    [][]float64 `json:"rows"`

	// Execution metadata.
	Operator  string        `json:"operator"`
	Elapsed   time.Duration `json:"elapsedNs"`
	Stats     storage.Stats `json:"stats"`
	SpanCount int           `json:"spanCount"`

	// Represent names the representation operator of a REPRESENT statement
	// ("m4", "minmax", "lttb", "minmaxlttb:4"); rows are then (time, value)
	// points instead of the eight-column span table. Empty for classic
	// span-table statements.
	Represent string `json:"represent,omitempty"`

	// Partial is true when unreadable chunks were dropped from the query
	// (non-STRICT execution); Warnings describes each degradation.
	Partial  bool     `json:"partial,omitempty"`
	Warnings []string `json:"warnings,omitempty"`

	// Series holds the per-series row blocks of a multi-series statement
	// (`FROM s1, s2` or `FROM root.*`), in sorted-id order for wildcards
	// and FROM order otherwise. Single-series statements leave it nil and
	// keep the historical flat shape; for multi-series statements the
	// top-level Rows stay nil, Stats sums every series' counters, and
	// Partial/Warnings aggregate with series attribution.
	Series []SeriesResult `json:"series,omitempty"`

	// Trace is the structured execution trace, present when the statement
	// had a TRACE clause or the context carried an armed trace.
	Trace *obs.Snapshot `json:"trace,omitempty"`
}

// SeriesResult is one series' block of a multi-series result: its rows in
// the same span/column layout as the single-series form, with the series'
// own cost counters and degradation status.
type SeriesResult struct {
	SeriesID string        `json:"seriesId"`
	Rows     [][]float64   `json:"rows"`
	Stats    storage.Stats `json:"stats"`
	Partial  bool          `json:"partial,omitempty"`
	Warnings []string      `json:"warnings,omitempty"`
}

// Text renders the result as an aligned table for CLI output; multi-series
// results render one block per series.
func (r *Result) Text() string {
	var sb strings.Builder
	if len(r.Series) > 0 {
		for i := range r.Series {
			s := &r.Series[i]
			fmt.Fprintf(&sb, "-- series %s --\n", s.SeriesID)
			writeTable(&sb, r.Columns, s.Rows)
			fmt.Fprintf(&sb, "-- %d of %d spans non-empty, %v\n", len(s.Rows), r.SpanCount, &s.Stats)
			if s.Partial {
				fmt.Fprintf(&sb, "-- PARTIAL RESULT: %d unreadable chunk(s) skipped\n", len(s.Warnings))
				for _, w := range s.Warnings {
					fmt.Fprintf(&sb, "--   warning: %s\n", w)
				}
			}
		}
		fmt.Fprintf(&sb, "-- %d series, %s, %v, %v\n",
			len(r.Series), r.Operator, r.Elapsed.Round(time.Microsecond), &r.Stats)
		return sb.String()
	}
	writeTable(&sb, r.Columns, r.Rows)
	fmt.Fprintf(&sb, "-- %d of %d spans non-empty, %s, %v, %v\n",
		len(r.Rows), r.SpanCount, r.Operator, r.Elapsed.Round(time.Microsecond), &r.Stats)
	if r.Partial {
		fmt.Fprintf(&sb, "-- PARTIAL RESULT: %d unreadable chunk(s) skipped\n", len(r.Warnings))
		for _, w := range r.Warnings {
			fmt.Fprintf(&sb, "--   warning: %s\n", w)
		}
	}
	return sb.String()
}

// writeTable renders one aligned column/row block.
func writeTable(sb *strings.Builder, columns []string, rows [][]float64) {
	widths := make([]int, len(columns))
	cells := make([][]string, 0, len(rows)+1)
	cells = append(cells, columns)
	for _, row := range rows {
		line := make([]string, len(row))
		for i, v := range row {
			line[i] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		cells = append(cells, line)
	}
	for _, line := range cells {
		for i, c := range line {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for _, line := range cells {
		for i, c := range line {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
}

// SeriesOutput is one series' typed share of an executed statement. The
// statement's form decides the payload: Aggregates (one per span) for the
// M4 form, Points for REPRESENT, Groups (non-empty spans only) for GROUP BY
// aggregates.
type SeriesOutput struct {
	SeriesID   string
	Aggregates []m4.Aggregate
	Points     series.Series
	Groups     []groupby.Row
	Stats      storage.Stats
	// Warnings lists every degradation of this series' read: chunks
	// excluded at snapshot time, dropped mid-query or refused by the budget.
	// Non-empty means the output is partial.
	Warnings []string
}

// MaxSpanOutputs caps what one statement may ask for: its span count times
// the number of series it resolves to. The operators allocate per-span
// state for every series before they read any data, so the cap bounds a
// statement's memory whatever its SPANS clause says. /render's widest
// canvas, 8192 columns, fits 128 series under it.
const MaxSpanOutputs = 1 << 20

// ErrTooManySpans marks a statement refused because its span count times
// its resolved series count exceeds MaxSpanOutputs.
var ErrTooManySpans = errors.New("m4ql: statement asks for too many spans")

// resolveSeries turns the statement's FROM clause into the concrete series
// list: explicit lists pass through in FROM order, wildcards expand against
// the engine's sorted SeriesIDs filtered by prefix. An empty wildcard match
// is a valid (empty) result, not an error — dashboards issue `root.*`
// against empty databases all the time.
func resolveSeries(e *lsm.Engine, stmt Statement) []string {
	if !stmt.Wildcard {
		return stmt.Series
	}
	var ids []string
	for _, id := range e.SeriesIDs() {
		if strings.HasPrefix(id, stmt.WildcardPrefix) {
			ids = append(ids, id)
		}
	}
	return ids
}

// Read is the one read path. Every query surface — m4ql text (the root
// package's DB.QueryContext, m4cli, the server's /query), the server's
// /render — builds a Statement and comes through here, so the contract below
// holds everywhere:
//
//  1. resolve the series list (explicit FROM list or wildcard expansion; a
//     single series is a list of one) and refuse the statement with
//     ErrTooManySpans when its spans times its series exceed
//     MaxSpanOutputs;
//  2. take every series' snapshot before any operator runs;
//  3. under STRICT, fail if a snapshot already excluded a quarantined chunk
//     — a strict read never omits data silently;
//  4. build one budget for the whole statement from stmt.Limits (its
//     TIMEOUT clause, over the per-query defaults a server merged in);
//  5. dispatch form {M4 aggregates | REPRESENT points | GROUP BY rows} ×
//     operator {LSM | UDF} through the batched entry points and collect each
//     series' output with its own cost counters and warnings.
//
// Without STRICT an unreadable chunk or an exhausted budget degrades the
// series it belongs to (SeriesOutput.Warnings non-empty, i.e. Partial) and
// never fails the statement; with it the same conditions are errors.
// Outputs are positional with the resolved list; errors name the series
// only when the statement is multi-series.
func Read(ctx context.Context, e *lsm.Engine, stmt Statement) ([]SeriesOutput, error) {
	if err := stmt.Query.Validate(); err != nil {
		return nil, err
	}
	ids := resolveSeries(e, stmt)
	if len(ids) > 0 && stmt.Query.W > MaxSpanOutputs/len(ids) {
		return nil, fmt.Errorf("%w: SPANS(%d) over %d series exceeds %d span outputs",
			ErrTooManySpans, stmt.Query.W, len(ids), MaxSpanOutputs)
	}
	snaps := make([]*storage.Snapshot, len(ids))
	for i, id := range ids {
		snap, err := e.Snapshot(id, stmt.Query.Range())
		switch {
		case err != nil && stmt.Multi():
			return nil, fmt.Errorf("m4ql: series %q: %w", id, err)
		case err != nil:
			return nil, err
		case stmt.Strict && snap.Warnings.Len() > 0 && stmt.Multi():
			return nil, fmt.Errorf("m4ql: strict read: series %q: %s", id, snap.Warnings.List()[0])
		case stmt.Strict && snap.Warnings.Len() > 0:
			return nil, fmt.Errorf("m4ql: strict read: %s", snap.Warnings.List()[0])
		}
		snaps[i] = snap
	}
	budget := govern.NewBudget(stmt.Limits)
	lsmOpts := m4lsm.Options{Parallelism: stmt.Parallelism, Strict: stmt.Strict, Metrics: e.Metrics(), Budget: budget}
	udfOpts := m4udf.Options{Parallelism: stmt.Parallelism, Strict: stmt.Strict, Metrics: e.Metrics(), Budget: budget}

	outs := make([]SeriesOutput, len(ids))
	var err error
	switch udf := stmt.Operator == OpUDF; {
	case stmt.Represent != nil:
		var pts []series.Series
		if udf {
			pts, err = m4udf.ReduceMultiContext(ctx, snaps, stmt.Query, *stmt.Represent, udfOpts)
		} else {
			pts, err = m4lsm.ReduceMultiContext(ctx, snaps, stmt.Query, *stmt.Represent, lsmOpts)
		}
		for i := range pts {
			outs[i].Points = pts[i]
		}
	case len(stmt.Aggregates) > 0:
		// Envelope-only function sets run merge-free, count/sum/avg scan
		// the merged stream; USING is informational for this form.
		var groups [][]groupby.Row
		groups, err = groupby.Compute(ctx, snaps, stmt.Query, stmt.Aggregates, lsmOpts)
		for i := range groups {
			outs[i].Groups = groups[i]
		}
	default:
		var aggs [][]m4.Aggregate
		if udf {
			aggs, err = m4udf.ComputeMultiContext(ctx, snaps, stmt.Query, udfOpts)
		} else {
			aggs, err = m4lsm.ComputeMultiContext(ctx, snaps, stmt.Query, lsmOpts)
		}
		for i := range aggs {
			outs[i].Aggregates = aggs[i]
		}
	}
	if err != nil {
		return nil, err
	}
	for i, id := range ids {
		outs[i].SeriesID = id
		outs[i].Stats = snaps[i].Stats.Load()
		outs[i].Warnings = snaps[i].Warnings.List()
	}
	return outs, nil
}

// Outcome is an executed statement before tabulation: the executor's typed
// per-series outputs and the statement-level facts every surface reports.
// A surface that draws points (the server's /render) reads Outputs
// directly, /query writes them with AppendJSON, and Result tabulates rows
// for the in-process callers.
type Outcome struct {
	Outputs  []SeriesOutput
	Operator string
	// Elapsed covers the whole read, snapshots included.
	Elapsed time.Duration
	// Stats sums every series' cost counters.
	Stats storage.Stats
	// Warnings lists every degradation; a multi-series statement prefixes
	// each with its series. Non-empty means Partial.
	Warnings []string
	Partial  bool
	// Trace is the finished execution trace, when the statement had a
	// TRACE clause or the context carried an armed trace.
	Trace *obs.Snapshot

	stmt Statement
}

// Exec runs a parsed statement under a context (cancellation aborts the
// operator's worker pool and returns ctx.Err()) through Read, and computes
// the statement-level facts. A single-series statement must resolve to
// exactly one series.
func Exec(ctx context.Context, e *lsm.Engine, stmt Statement) (*Outcome, error) {
	tr := obs.TraceOf(ctx)
	if tr == nil && stmt.Trace {
		ctx, tr = obs.WithTrace(ctx)
	}
	start := time.Now()
	outs, err := Read(ctx, e, stmt)
	if err != nil {
		return nil, err
	}
	o := &Outcome{Outputs: outs, Operator: stmt.Operator.String(), Elapsed: time.Since(start), stmt: stmt}
	if !stmt.Multi() && len(outs) != 1 {
		return nil, fmt.Errorf("m4ql: statement names no series")
	}
	for _, out := range outs {
		o.Stats.Add(out.Stats)
		if !stmt.Multi() {
			o.Warnings = out.Warnings
			continue
		}
		for _, w := range out.Warnings {
			o.Warnings = append(o.Warnings, fmt.Sprintf("series %s: %s", out.SeriesID, w))
		}
	}
	o.Partial = len(o.Warnings) > 0
	if tr != nil {
		tr.Warn(o.Warnings...)
		o.Trace = tr.Finish()
	}
	return o, nil
}

// Release hands the outcome's points and aggregates back to the operator's
// pools (m4lsm.PointPool, m4lsm.AggregatePool) for later queries. Only a
// caller that owns the outcome outright and reads none of its outputs again
// may call it: the server does, once the response is written. Library
// callers (DB.QueryContext, m4cli, Result) own their results and never
// release them; the collector takes them.
func (o *Outcome) Release() {
	for i := range o.Outputs {
		out := &o.Outputs[i]
		m4lsm.PointPool.Put(out.Points)
		m4lsm.AggregatePool.Put(out.Aggregates)
		out.Points, out.Aggregates = nil, nil
	}
}

// ExecuteContext is Exec followed by Result.
func ExecuteContext(ctx context.Context, e *lsm.Engine, stmt Statement) (*Result, error) {
	o, err := Exec(ctx, e, stmt)
	if err != nil {
		return nil, err
	}
	return o.Result(), nil
}

// Result tabulates the outcome: single-series statements keep the flat Rows
// shape, multi-series ones get one Series block each, decided by the
// statement (stmt.Multi), not by how many series a wildcard matched.
func (o *Outcome) Result() *Result {
	stmt := o.stmt
	res := &Result{
		Operator:  o.Operator,
		Elapsed:   o.Elapsed,
		Stats:     o.Stats,
		SpanCount: stmt.Query.W,
		Partial:   o.Partial,
		Warnings:  o.Warnings,
		Trace:     o.Trace,
	}
	res.Columns = columns(stmt)
	if stmt.Represent != nil {
		res.Represent = stmt.Represent.String()
	}
	if !stmt.Multi() {
		res.Rows = rows(stmt, o.Outputs[0])
		return res
	}
	res.Series = make([]SeriesResult, len(o.Outputs))
	for i, out := range o.Outputs {
		res.Series[i] = SeriesResult{SeriesID: out.SeriesID, Rows: rows(stmt, out), Stats: out.Stats,
			Partial: len(out.Warnings) > 0, Warnings: out.Warnings}
	}
	return res
}

// columns names the statement's output columns: time and value for
// REPRESENT, else the span index and the projected columns or functions.
func columns(stmt Statement) []string {
	switch {
	case stmt.Represent != nil:
		return []string{"time", "value"}
	case len(stmt.Aggregates) > 0:
		cols := []string{"span"}
		for _, f := range stmt.Aggregates {
			cols = append(cols, f.String())
		}
		return cols
	}
	return append([]string{"span"}, columnStrings(stmt.Columns)...)
}

// rows tabulates one series' output in the statement's form: (time, value)
// per point for REPRESENT, the span index plus the projected columns per
// non-empty span otherwise (of Groups and Aggregates only the statement's
// own form is set).
func rows(stmt Statement, o SeriesOutput) [][]float64 {
	if stmt.Represent != nil {
		out := make([][]float64, len(o.Points))
		for i, p := range o.Points {
			out[i] = []float64{float64(p.T), p.V}
		}
		return out
	}
	var out [][]float64
	for _, g := range o.Groups {
		row := make([]float64, 0, len(g.Values)+1)
		row = append(row, float64(g.Span))
		out = append(out, append(row, g.Values...))
	}
	for i, a := range o.Aggregates {
		if a.Empty {
			continue
		}
		row := make([]float64, 0, len(stmt.Columns)+1)
		row = append(row, float64(i))
		for _, c := range stmt.Columns {
			row = append(row, cell(a, c))
		}
		out = append(out, row)
	}
	return out
}

// Run parses and executes a query in one step. EXPLAIN statements are
// rejected; RunAny runs them.
func Run(e *lsm.Engine, query string) (*Result, error) {
	return RunContext(context.Background(), e, query)
}

// RunContext is Run under a context.
func RunContext(ctx context.Context, e *lsm.Engine, query string) (*Result, error) {
	stmt, err := ParseQuery(query)
	if err != nil {
		return nil, err
	}
	return ExecuteContext(ctx, e, stmt)
}

// ParseQuery parses a statement that answers with rows: EXPLAIN, which
// answers with a plan, is refused (RunAny runs it).
func ParseQuery(query string) (Statement, error) {
	stmt, err := Parse(query)
	if err == nil && stmt.Explain {
		err = fmt.Errorf("m4ql: EXPLAIN is not a query; run it through RunAny")
	}
	return stmt, err
}

// Explain executes the statement and renders the physical plan with its
// measured cost, the shape a user inspects to see whether the merge-free
// operator pruned chunks. A degraded read says so: the cost of a partial
// answer is not the cost of the whole one.
func Explain(ctx context.Context, e *lsm.Engine, stmt Statement) (string, error) {
	res, err := ExecuteContext(ctx, e, stmt)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	op := "M4-LSM (chunk merge free: metadata candidates + lazy loads)"
	if stmt.Operator == OpUDF {
		op = "M4-UDF (load all chunks, k-way merge, scan)"
	}
	fmt.Fprintf(&sb, "M4 representation query\n")
	switch {
	case stmt.Wildcard:
		fmt.Fprintf(&sb, "  series:   %s* (%d matched)\n", stmt.WildcardPrefix, len(res.Series))
	case len(stmt.Series) > 1:
		fmt.Fprintf(&sb, "  series:   %s\n", strings.Join(stmt.Series, ", "))
	default:
		fmt.Fprintf(&sb, "  series:   %s\n", stmt.SeriesID)
	}
	fmt.Fprintf(&sb, "  range:    [%d, %d) in %d spans\n", stmt.Query.Tqs, stmt.Query.Tqe, stmt.Query.W)
	fmt.Fprintf(&sb, "  operator: %s\n", op)
	if stmt.Represent != nil {
		desc := "point output"
		switch stmt.Represent.Kind {
		case reprops.KindMinMax:
			desc = "2 points/span from metadata + pyramid cells"
		case reprops.KindLTTB:
			desc = "sequential triangle selection over the full merge (no pruning)"
		case reprops.KindMinMaxLTTB:
			desc = fmt.Sprintf("MinMax preselection at %d spans feeding LTTB", stmt.Query.W*stmt.Represent.EffectiveRatio())
		}
		fmt.Fprintf(&sb, "  represent: %s (%s)\n", stmt.Represent, desc)
	}
	if stmt.Parallelism > 0 {
		fmt.Fprintf(&sb, "  parallel: %d workers\n", stmt.Parallelism)
	} else {
		fmt.Fprintf(&sb, "  parallel: GOMAXPROCS\n")
	}
	if stmt.Limits.Timeout > 0 {
		fmt.Fprintf(&sb, "  timeout:  %v (soft budget)\n", stmt.Limits.Timeout)
	}
	fmt.Fprintf(&sb, "  columns:  %s\n", strings.Join(columnStrings(stmt.Columns), ", "))
	fmt.Fprintf(&sb, "executed in %v\n", res.Elapsed.Round(time.Microsecond))
	s := res.Stats
	fmt.Fprintf(&sb, "  chunks loaded:        %d (+%d timestamp-only)\n", s.ChunksLoaded, s.TimeBlocksLoaded)
	fmt.Fprintf(&sb, "  chunks pruned:        %d (answered from metadata)\n", s.ChunksPruned)
	fmt.Fprintf(&sb, "  bytes read:           %d\n", s.BytesRead)
	fmt.Fprintf(&sb, "  points decoded:       %d\n", s.PointsDecoded)
	fmt.Fprintf(&sb, "  candidate rounds:     %d\n", s.CandidateRounds)
	fmt.Fprintf(&sb, "  index probes:         %d (%d existence, %d boundary)\n",
		s.IndexProbes, s.ExistProbes, s.BoundaryProbes)
	nonEmpty := len(res.Rows)
	for i := range res.Series {
		nonEmpty += len(res.Series[i].Rows)
	}
	fmt.Fprintf(&sb, "  non-empty spans:      %d of %d\n", nonEmpty, res.SpanCount)
	if res.Partial {
		fmt.Fprintf(&sb, "partial: %d warning(s), the counts above cover only what was read\n", len(res.Warnings))
		for _, w := range res.Warnings {
			fmt.Fprintf(&sb, "  warning: %s\n", w)
		}
	}
	return sb.String(), nil
}

// RunAny parses and executes either a plain query (returning a tabular
// result) or an EXPLAIN statement (returning the plan text).
func RunAny(ctx context.Context, e *lsm.Engine, query string) (res *Result, explain string, err error) {
	stmt, err := Parse(query)
	if err != nil {
		return nil, "", err
	}
	if stmt.Explain {
		explain, err = Explain(ctx, e, stmt)
		return nil, explain, err
	}
	res, err = ExecuteContext(ctx, e, stmt)
	return res, "", err
}

func columnStrings(cols []Column) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = c.String()
	}
	return out
}

func cell(a m4.Aggregate, c Column) float64 {
	switch c {
	case ColFirstTime:
		return float64(a.First.T)
	case ColFirstValue:
		return a.First.V
	case ColLastTime:
		return float64(a.Last.T)
	case ColLastValue:
		return a.Last.V
	case ColBottomTime:
		return float64(a.Bottom.T)
	case ColBottomValue:
		return a.Bottom.V
	case ColTopTime:
		return float64(a.Top.T)
	default:
		if c == ColTopValue {
			return a.Top.V
		}
		return 0
	}
}
