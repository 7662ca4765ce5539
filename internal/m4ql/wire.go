package m4ql

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"

	"m4lsm/internal/storage"
)

// AppendJSON appends the outcome's JSON answer, the body of /query, to dst
// and returns the extended buffer. It is the encoding encoding/json gives
// the outcome's Result followed by a newline, written straight from the
// typed outputs: no row table, no reflection. Times and span indexes are
// written as integers, so every timestamp is exact on the wire; for
// |t| < 2^53, where float64 holds every integer, the bytes equal
// encoding/json's of Result. Values are formatted as encoding/json formats
// a float64.
//
// JSON has no form for ±Inf and NaN, which the engine stores and SUM or
// AVG can overflow to: such a value fails the encoding with an error that
// names its series and span, and dst comes back as it was passed in.
func (o *Outcome) AppendJSON(dst []byte) ([]byte, error) {
	stmt, start := o.stmt, len(dst)
	dst = slices.Grow(dst, o.sizeHint())
	dst = append(dst, `{"columns":`...)
	dst = appendStrings(dst, columns(stmt))
	dst = append(dst, `,"rows":`...)
	var err error
	if stmt.Multi() {
		dst = append(dst, "null"...)
	} else if dst, err = appendRows(dst, stmt, &o.Outputs[0]); err != nil {
		return dst[:start], err
	}
	dst = append(dst, `,"operator":`...)
	dst = appendString(dst, o.Operator)
	dst = append(dst, `,"elapsedNs":`...)
	dst = strconv.AppendInt(dst, int64(o.Elapsed), 10)
	dst = append(dst, `,"stats":`...)
	dst = appendStats(dst, &o.Stats)
	dst = append(dst, `,"spanCount":`...)
	dst = strconv.AppendInt(dst, int64(stmt.Query.W), 10)
	if stmt.Represent != nil {
		dst = append(dst, `,"represent":`...)
		dst = appendString(dst, stmt.Represent.String())
	}
	dst = appendPartial(dst, o.Partial, o.Warnings)
	if stmt.Multi() && len(o.Outputs) > 0 {
		dst = append(dst, `,"series":[`...)
		for i := range o.Outputs {
			out := &o.Outputs[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"seriesId":`...)
			dst = appendString(dst, out.SeriesID)
			dst = append(dst, `,"rows":`...)
			if dst, err = appendRows(dst, stmt, out); err != nil {
				return dst[:start], err
			}
			dst = append(dst, `,"stats":`...)
			dst = appendStats(dst, &out.Stats)
			dst = appendPartial(dst, len(out.Warnings) > 0, out.Warnings)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if o.Trace != nil {
		trace, err := json.Marshal(o.Trace)
		if err != nil {
			return dst[:start], err
		}
		dst = append(append(dst, `,"trace":`...), trace...)
	}
	return append(dst, "}\n"...), nil
}

// sizeHint is about the length of the outcome's JSON answer: some room for
// the metadata and 24 bytes per cell of every row the outputs hold.
func (o *Outcome) sizeHint() int {
	n := 512
	for i := range o.Outputs {
		out := &o.Outputs[i]
		cells := 2*len(out.Points) + (1+len(o.stmt.Aggregates))*len(out.Groups)
		for _, a := range out.Aggregates {
			if !a.Empty {
				cells += 1 + len(o.stmt.Columns)
			}
		}
		n += 256 + 24*cells
	}
	return n
}

// appendRows appends one series' rows in the statement's form, the JSON of
// what rows tabulates: (time, value) per point for REPRESENT, the span
// index and the projected columns per non-empty span otherwise. Like
// rows, a REPRESENT answer without points is [] and a span table without
// rows is null.
func appendRows(dst []byte, stmt Statement, out *SeriesOutput) ([]byte, error) {
	nonFinite := func(span int, v float64) error {
		return fmt.Errorf("m4ql: series %q span %d holds %v, which JSON cannot carry", out.SeriesID, span, v)
	}
	if stmt.Represent != nil {
		dst = append(dst, '[')
		for i, p := range out.Points {
			if !finite(p.V) {
				return dst, nonFinite(stmt.Query.SpanIndex(p.T), p.V)
			}
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(strconv.AppendInt(append(dst, '['), p.T, 10), ',')
			dst = append(appendFloat(dst, p.V), ']')
		}
		return append(dst, ']'), nil
	}
	n := 0
	open := func() {
		if n == 0 {
			dst = append(dst, '[')
		} else {
			dst = append(dst, ',')
		}
		n++
	}
	for _, g := range out.Groups {
		open()
		dst = strconv.AppendInt(append(dst, '['), int64(g.Span), 10)
		for _, v := range g.Values {
			if !finite(v) {
				return dst, nonFinite(g.Span, v)
			}
			dst = appendFloat(append(dst, ','), v)
		}
		dst = append(dst, ']')
	}
	for i := range out.Aggregates {
		a := &out.Aggregates[i]
		if a.Empty {
			continue
		}
		open()
		dst = strconv.AppendInt(append(dst, '['), int64(i), 10)
		for _, c := range stmt.Columns {
			dst = append(dst, ',')
			switch c {
			case ColFirstTime:
				dst = strconv.AppendInt(dst, a.First.T, 10)
			case ColLastTime:
				dst = strconv.AppendInt(dst, a.Last.T, 10)
			case ColBottomTime:
				dst = strconv.AppendInt(dst, a.Bottom.T, 10)
			case ColTopTime:
				dst = strconv.AppendInt(dst, a.Top.T, 10)
			default:
				v := cell(*a, c)
				if !finite(v) {
					return dst, nonFinite(i, v)
				}
				dst = appendFloat(dst, v)
			}
		}
		dst = append(dst, ']')
	}
	if n == 0 {
		return append(dst, "null"...), nil
	}
	return append(dst, ']'), nil
}

// appendPartial appends the omitempty partial and warnings fields.
func appendPartial(dst []byte, partial bool, warnings []string) []byte {
	if partial {
		dst = append(dst, `,"partial":true`...)
	}
	if len(warnings) > 0 {
		dst = append(dst, `,"warnings":`...)
		dst = appendStrings(dst, warnings)
	}
	return dst
}

// appendStats appends the counters as encoding/json writes storage.Stats,
// whose fields carry no tags: every field by its Go name, in order.
func appendStats(dst []byte, s *storage.Stats) []byte {
	fields := [...]struct {
		name string
		v    int64
	}{
		{"ChunksLoaded", s.ChunksLoaded}, {"TimeBlocksLoaded", s.TimeBlocksLoaded},
		{"BytesRead", s.BytesRead}, {"PointsDecoded", s.PointsDecoded},
		{"CandidateRounds", s.CandidateRounds}, {"IndexProbes", s.IndexProbes},
		{"ExistProbes", s.ExistProbes}, {"BoundaryProbes", s.BoundaryProbes},
		{"ChunksPruned", s.ChunksPruned}, {"PyramidSpans", s.PyramidSpans},
		{"PyramidCells", s.PyramidCells}, {"PyramidFallbackSpans", s.PyramidFallbackSpans},
	}
	for i, f := range fields {
		if i == 0 {
			dst = append(dst, `{"`...)
		} else {
			dst = append(dst, `,"`...)
		}
		dst = append(append(dst, f.name...), `":`...)
		dst = strconv.AppendInt(dst, f.v, 10)
	}
	return append(dst, '}')
}

// finite reports whether v has a JSON form.
func finite(v float64) bool { return !math.IsInf(v, 0) && !math.IsNaN(v) }

// appendFloat formats a finite v as encoding/json formats a float64: the
// shortest decimal that reads back as v, in exponent form below 1e-6 and
// from 1e21 on, with the exponent unpadded.
func appendFloat(dst []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, v, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-07 becomes e-7
		dst = dst[:n-1]
	}
	return dst
}

// appendStrings appends a JSON array of strings.
func appendStrings(dst []byte, ss []string) []byte {
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, s)
	}
	return append(dst, ']')
}

// appendString appends s as a JSON string escaped as encoding/json escapes
// it by default: quotes, backslashes and control bytes, the HTML
// characters <, > and &, U+2028 and U+2029, and invalid UTF-8 as U+FFFD.
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}
