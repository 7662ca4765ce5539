package m4ql

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"m4lsm/internal/govern"
	"m4lsm/internal/groupby"
	"m4lsm/internal/m4"
	"m4lsm/internal/reprops"
)

// Column is one projected output column of the M4 SQL form (Appendix A.1).
type Column uint8

// The eight M4 output columns.
const (
	ColFirstTime Column = iota
	ColFirstValue
	ColLastTime
	ColLastValue
	ColBottomTime
	ColBottomValue
	ColTopTime
	ColTopValue
	numColumns
)

var columnNames = [numColumns]string{
	"FirstTime", "FirstValue", "LastTime", "LastValue",
	"BottomTime", "BottomValue", "TopTime", "TopValue",
}

// String returns the canonical column name.
func (c Column) String() string {
	if int(c) < len(columnNames) {
		return columnNames[c]
	}
	return fmt.Sprintf("Column(%d)", int(c))
}

// AllColumns returns the eight columns in SQL order.
func AllColumns() []Column {
	cols := make([]Column, numColumns)
	for i := range cols {
		cols[i] = Column(i)
	}
	return cols
}

// Operator selects which physical operator executes the query.
type Operator uint8

// Available operators.
const (
	OpLSM Operator = iota // the paper's merge-free M4-LSM (default)
	OpUDF                 // the merge-everything baseline
)

func (o Operator) String() string {
	if o == OpUDF {
		return "UDF"
	}
	return "LSM"
}

// Statement is a parsed M4 query.
type Statement struct {
	Columns []Column // projected M4 columns, in order (M4 form)
	// SeriesID is the first explicit FROM series (empty for wildcard
	// statements); single-series callers keep reading it unchanged.
	SeriesID string
	// Series is the explicit FROM list. A statement is multi-series when
	// the list has more than one entry or Wildcard is set; execution then
	// reports per-series row blocks (Result.Series).
	Series []string
	// Wildcard marks a `FROM <prefix>*` statement: the series set is
	// expanded at execution time against the engine's sorted series ids,
	// keeping only those with the (possibly empty) WildcardPrefix.
	Wildcard       bool
	WildcardPrefix string
	Query          m4.Query
	Operator       Operator
	// Aggregates, when non-empty, selects the GroupBy form instead of the
	// M4 form: SELECT COUNT(v), AVG(v), ... per span.
	Aggregates []groupby.Func
	// Strict is the STRICT clause: fail the query on any unreadable chunk
	// instead of degrading to the readable ones with warnings.
	Strict bool
	// Trace is the TRACE clause: return a structured execution trace
	// (phases, I/O counters) with the result.
	Trace bool
	// Limits is the statement's budget. The TIMEOUT <ms> clause sets
	// Limits.Timeout, the soft wall-clock budget: when it expires the query
	// degrades to a partial result with warnings (or fails typed under
	// STRICT). A server merges its per-query defaults into the zero fields
	// before it runs the statement (Limits.Merge), so a clause overrides
	// them. The zero value runs unbudgeted.
	Limits govern.Limits
	// Represent is the REPRESENT clause: execute an alternative
	// representation operator (minmax, lttb, minmaxlttb[:ratio], or an
	// explicit m4) and return point rows (time, value) instead of the
	// classic eight-column span table. Nil means the clause is absent and
	// the statement keeps its historical M4 span-table shape.
	Represent *reprops.Spec
	// Explain requests the physical plan and cost summary instead of rows.
	Explain bool
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) expect(kind tokenKind, what string) (token, error) {
	t := p.next()
	if t.kind != kind {
		return t, fmt.Errorf("m4ql: expected %s, got %s", what, t)
	}
	return t, nil
}

func (p *parser) expectKeyword(kw string) error {
	t := p.next()
	if !keywordIs(t, kw) {
		return fmt.Errorf("m4ql: expected %s, got %s", strings.ToUpper(kw), t)
	}
	return nil
}

// Parse parses one M4 query.
func Parse(input string) (Statement, error) {
	toks, err := lex(input)
	if err != nil {
		return Statement{}, err
	}
	p := &parser{toks: toks}
	var stmt Statement
	if keywordIs(p.peek(), "explain") {
		p.next()
		stmt.Explain = true
	}
	if err := p.expectKeyword("select"); err != nil {
		return Statement{}, err
	}
	if stmt.Columns, stmt.Aggregates, err = p.parseProjection(); err != nil {
		return Statement{}, err
	}
	if err := p.expectKeyword("from"); err != nil {
		return Statement{}, err
	}
	if err := p.parseSeriesList(&stmt); err != nil {
		return Statement{}, err
	}

	if err := p.expectKeyword("where"); err != nil {
		return Statement{}, err
	}
	if stmt.Query.Tqs, stmt.Query.Tqe, err = p.parseTimeRange(); err != nil {
		return Statement{}, err
	}

	if err := p.expectKeyword("group"); err != nil {
		return Statement{}, err
	}
	if err := p.expectKeyword("by"); err != nil {
		return Statement{}, err
	}
	if err := p.expectKeyword("spans"); err != nil {
		return Statement{}, err
	}
	if _, err := p.expect(tokLParen, "("); err != nil {
		return Statement{}, err
	}
	wTok, err := p.expect(tokNumber, "span count")
	if err != nil {
		return Statement{}, err
	}
	w, err := strconv.Atoi(wTok.text)
	if err != nil {
		return Statement{}, fmt.Errorf("m4ql: bad span count %q: %v", wTok.text, err)
	}
	stmt.Query.W = w
	if _, err := p.expect(tokRParen, ")"); err != nil {
		return Statement{}, err
	}

	// Trailing clauses: USING <op>, REPRESENT <spec>, TIMEOUT <ms>, STRICT
	// and TRACE, each at most once, in any order.
	var haveUsing, haveTimeout bool
	for {
		switch {
		case keywordIs(p.peek(), "represent"):
			if stmt.Represent != nil {
				return Statement{}, fmt.Errorf("m4ql: duplicate REPRESENT clause")
			}
			p.next()
			t := p.next()
			if t.kind != tokIdent {
				return Statement{}, fmt.Errorf("m4ql: expected representation name after REPRESENT, got %s", t)
			}
			text := t.text
			if p.peek().kind == tokColon {
				p.next()
				nTok, err := p.expect(tokNumber, "preselection ratio")
				if err != nil {
					return Statement{}, err
				}
				text += ":" + nTok.text
			}
			spec, err := reprops.ParseSpec(text)
			if err != nil {
				return Statement{}, fmt.Errorf("m4ql: %w", err)
			}
			stmt.Represent = &spec
			continue
		case keywordIs(p.peek(), "strict"):
			if stmt.Strict {
				return Statement{}, fmt.Errorf("m4ql: duplicate STRICT clause")
			}
			stmt.Strict = true
			p.next()
			continue
		case keywordIs(p.peek(), "trace"):
			if stmt.Trace {
				return Statement{}, fmt.Errorf("m4ql: duplicate TRACE clause")
			}
			stmt.Trace = true
			p.next()
			continue
		case keywordIs(p.peek(), "using"):
			if haveUsing {
				return Statement{}, fmt.Errorf("m4ql: duplicate USING clause")
			}
			haveUsing = true
			p.next()
			t := p.next()
			switch {
			case keywordIs(t, "lsm"):
				stmt.Operator = OpLSM
			case keywordIs(t, "udf"):
				stmt.Operator = OpUDF
			default:
				return Statement{}, fmt.Errorf("m4ql: unknown operator %s (want LSM or UDF)", t)
			}
			continue
		case keywordIs(p.peek(), "parallel"):
			// Removed syntax is refused by name, not as an unknown token.
			return Statement{}, fmt.Errorf("m4ql: PARALLEL was removed; a query runs on one goroutine")
		case keywordIs(p.peek(), "timeout"):
			if haveTimeout {
				return Statement{}, fmt.Errorf("m4ql: duplicate TIMEOUT clause")
			}
			haveTimeout = true
			p.next()
			msTok, err := p.expect(tokNumber, "timeout milliseconds")
			if err != nil {
				return Statement{}, err
			}
			ms, err := strconv.ParseInt(msTok.text, 10, 64)
			if err != nil || ms < 1 {
				return Statement{}, fmt.Errorf("m4ql: TIMEOUT wants positive milliseconds, got %q", msTok.text)
			}
			stmt.Limits.Timeout = time.Duration(ms) * time.Millisecond
			continue
		}
		break
	}
	if t := p.next(); t.kind != tokEOF {
		return Statement{}, fmt.Errorf("m4ql: trailing input at %s", t)
	}
	if stmt.Represent != nil && len(stmt.Aggregates) > 0 {
		return Statement{}, fmt.Errorf("m4ql: REPRESENT returns representation points and cannot be combined with aggregate functions")
	}
	if err := stmt.Query.Validate(); err != nil {
		return Statement{}, err
	}
	return stmt, nil
}

// parseSeriesList handles the FROM clause: a single series, a comma list
// (`FROM s1, s2`), or a prefix wildcard (`FROM root.*`, or bare `FROM *`
// for every series). The lexer folds dots into identifiers, so `root.*`
// arrives as the ident "root." followed by a star token.
func (p *parser) parseSeriesList(stmt *Statement) error {
	t := p.next()
	switch {
	case t.kind == tokStar:
		stmt.Wildcard = true
	case t.kind == tokIdent && strings.HasSuffix(t.text, ".") && p.peek().kind == tokStar:
		p.next()
		stmt.Wildcard = true
		stmt.WildcardPrefix = t.text
	case t.kind == tokIdent || t.kind == tokString:
		stmt.Series = append(stmt.Series, t.text)
	default:
		return fmt.Errorf("m4ql: expected series id after FROM, got %s", t)
	}
	if stmt.Wildcard {
		if p.peek().kind == tokComma {
			return fmt.Errorf("m4ql: a FROM wildcard cannot be combined with other series")
		}
		return nil
	}
	for p.peek().kind == tokComma {
		p.next()
		t := p.next()
		if t.kind != tokIdent && t.kind != tokString {
			return fmt.Errorf("m4ql: expected series id after comma, got %s", t)
		}
		stmt.Series = append(stmt.Series, t.text)
	}
	seen := make(map[string]bool, len(stmt.Series))
	for _, id := range stmt.Series {
		if seen[id] {
			return fmt.Errorf("m4ql: duplicate series %q in FROM", id)
		}
		seen[id] = true
	}
	stmt.SeriesID = stmt.Series[0]
	return nil
}

// Multi reports whether the statement queries more than one series: an
// explicit FROM list or a wildcard (multi even when it expands to one
// match, so the result shape is decided by the statement, not the data).
func (s *Statement) Multi() bool {
	return s.Wildcard || len(s.Series) > 1
}

// parseProjection handles three projection families: `M4(*)`, a list of
// the eight M4 column functions (FirstTime(v), ...), or a list of GroupBy
// aggregate functions (COUNT(v), AVG(v), ...). The two lists may not mix:
// M4 columns are points of the representation, aggregates are scalars.
func (p *parser) parseProjection() ([]Column, []groupby.Func, error) {
	if keywordIs(p.peek(), "m4") {
		p.next()
		if _, err := p.expect(tokLParen, "("); err != nil {
			return nil, nil, err
		}
		if _, err := p.expect(tokStar, "*"); err != nil {
			return nil, nil, err
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return nil, nil, err
		}
		return AllColumns(), nil, nil
	}
	var cols []Column
	var aggs []groupby.Func
	for {
		t := p.next()
		if t.kind != tokIdent {
			return nil, nil, fmt.Errorf("m4ql: expected column function, got %s", t)
		}
		col, isCol := columnByName(t.text)
		agg, isAgg := groupby.ByName(t.text)
		if !isCol && !isAgg {
			return nil, nil, fmt.Errorf("m4ql: unknown function %q", t.text)
		}
		if _, err := p.expect(tokLParen, "("); err != nil {
			return nil, nil, err
		}
		arg := p.next()
		if arg.kind != tokIdent && arg.kind != tokString && arg.kind != tokStar {
			return nil, nil, fmt.Errorf("m4ql: expected column argument, got %s", arg)
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return nil, nil, err
		}
		if isCol {
			cols = append(cols, col)
		} else {
			aggs = append(aggs, agg)
		}
		if len(cols) > 0 && len(aggs) > 0 {
			return nil, nil, fmt.Errorf("m4ql: cannot mix M4 columns and aggregate functions")
		}
		if p.peek().kind != tokComma {
			return cols, aggs, nil
		}
		p.next()
	}
}

func columnByName(name string) (Column, bool) {
	for i, n := range columnNames {
		if strings.EqualFold(n, name) {
			return Column(i), true
		}
	}
	return 0, false
}

// parseTimeRange handles `time >= a AND time < b` (in either order).
func (p *parser) parseTimeRange() (tqs, tqe int64, err error) {
	var haveGE, haveLT bool
	for i := 0; i < 2; i++ {
		if err := p.expectKeyword("time"); err != nil {
			return 0, 0, err
		}
		op := p.next()
		num, err := p.expect(tokNumber, "timestamp")
		if err != nil {
			return 0, 0, err
		}
		v, err := strconv.ParseInt(num.text, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("m4ql: bad timestamp %q: %v", num.text, err)
		}
		switch op.kind {
		case tokGE:
			if haveGE {
				return 0, 0, fmt.Errorf("m4ql: duplicate time >= condition")
			}
			tqs, haveGE = v, true
		case tokLT:
			if haveLT {
				return 0, 0, fmt.Errorf("m4ql: duplicate time < condition")
			}
			tqe, haveLT = v, true
		default:
			return 0, 0, fmt.Errorf("m4ql: expected >= or <, got %s", op)
		}
		if i == 0 {
			if err := p.expectKeyword("and"); err != nil {
				return 0, 0, err
			}
		}
	}
	return tqs, tqe, nil
}
