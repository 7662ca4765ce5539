package server

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"m4lsm/internal/lsm"
	"m4lsm/internal/series"
)

// refParseWriteBody is the line-by-line /write parser the in-place one
// replaced, kept as FuzzWriteBody's reference: a bufio.Scanner capped at
// maxWriteLineBytes, strings.TrimSpace and strings.Fields per line, a map
// of growing per-series slices. Whatever it accepts, the in-place parser
// must accept with the same entries; whatever it rejects, with the same
// error text (refErrorText maps the scanner's own errors to the handler's
// wording).
func refParseWriteBody(r *bufio.Scanner) ([]lsm.BatchEntry, int, error) {
	var order []string
	points := map[string]series.Series{}
	total := 0
	line := 0
	for r.Scan() {
		line++
		text := strings.TrimSpace(r.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 3 {
			return nil, 0, fmt.Errorf("line %d: want \"series t v\", got %d fields", line, len(fields))
		}
		id := fields[0]
		t, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, 0, fmt.Errorf("line %d: bad timestamp %q", line, fields[1])
		}
		v, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, 0, fmt.Errorf("line %d: bad value %q", line, fields[2])
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, 0, fmt.Errorf("line %d: non-finite value %q", line, fields[2])
		}
		if _, seen := points[id]; !seen {
			order = append(order, id)
		}
		points[id] = append(points[id], series.Point{T: t, V: v})
		total++
	}
	if err := r.Err(); err != nil {
		return nil, 0, err
	}
	if total == 0 {
		return nil, 0, errors.New("empty body: no points")
	}
	entries := make([]lsm.BatchEntry, 0, len(order))
	for _, id := range order {
		entries = append(entries, lsm.BatchEntry{SeriesID: id, Points: points[id]})
	}
	return entries, total, nil
}

// refParse runs the reference over body the way the handler used to: a
// scanner over the body with a 256-byte initial buffer and the line cap.
func refParse(body string) ([]lsm.BatchEntry, int, error) {
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 0, 256), maxWriteLineBytes)
	return refParseWriteBody(sc)
}

// refErrorText is the text the handler answered for a reference error: the
// scanner's bufio.ErrTooLong became the line-cap message, every other
// error went out as it was.
func refErrorText(err error) string {
	if errors.Is(err, bufio.ErrTooLong) {
		return fmt.Sprintf("line exceeds %d bytes", maxWriteLineBytes)
	}
	return err.Error()
}
