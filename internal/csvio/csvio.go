// Package csvio reads and writes time series as CSV, the interchange
// format the paper's public experiment repository uses for its datasets.
// The format is a header line followed by `time,value` rows; timestamps
// are epoch milliseconds.
package csvio

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"m4lsm/internal/series"
)

// Read parses a CSV stream into a series. A single header line is
// tolerated (any first row whose first field is not an integer). Rows must
// be in strictly increasing time order unless sortDedup is true, in which
// case they are sorted and later duplicates win.
func Read(r io.Reader, sortDedup bool) (series.Series, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 2
	cr.ReuseRecord = true
	var out series.Series
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("csvio: %w", err)
		}
		line++
		t, err := strconv.ParseInt(rec[0], 10, 64)
		if err != nil {
			if line == 1 {
				continue // header
			}
			return nil, fmt.Errorf("csvio: line %d: bad timestamp %q", line, rec[0])
		}
		v, err := strconv.ParseFloat(rec[1], 64)
		if err != nil {
			return nil, fmt.Errorf("csvio: line %d: bad value %q", line, rec[1])
		}
		out = append(out, series.Point{T: t, V: v})
	}
	if sortDedup {
		return series.SortDedup(out), nil
	}
	if err := out.Columns().Validate(); err != nil {
		return nil, fmt.Errorf("csvio: %w (pass sortDedup to accept unsorted input)", err)
	}
	return out, nil
}

// Write emits the series as CSV with a `time,value` header.
func Write(w io.Writer, s series.Series) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time", "value"}); err != nil {
		return fmt.Errorf("csvio: %w", err)
	}
	rec := make([]string, 2)
	for _, p := range s {
		rec[0] = strconv.FormatInt(p.T, 10)
		rec[1] = strconv.FormatFloat(p.V, 'g', -1, 64)
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("csvio: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("csvio: %w", err)
	}
	return nil
}
