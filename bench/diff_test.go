package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lower := boundedMetric{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := boundedMetric{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.10}
	row := func(median, q1, q3 float64, runs int) summaryRow {
		return summaryRow{Median: median, Q1: q1, Q3: q3, Runs: runs}
	}
	for _, c := range []struct {
		name     string
		old, new summaryRow
		m        boundedMetric
		want     string
	}{
		{"within the bound", row(10, 9.9, 10.1, 5), row(10.5, 10.4, 10.6, 5), lower, "same"},
		{"slower than the bound allows", row(10, 9.9, 10.1, 5), row(11.5, 11.4, 11.6, 5), lower, "worse"},
		{"faster by more than the bound", row(10, 9.9, 10.1, 5), row(8, 7.9, 8.1, 5), lower, "better"},
		{"spread wider than the bound", row(10, 9, 10.5, 5), row(11.5, 11.4, 11.6, 5), lower, "unresolved"},
		{"single runs carry no spread", row(10, 10, 10, 1), row(11.5, 11.5, 11.5, 1), lower, "worse"},
		{"higher is better: a drop is worse", row(100, 99, 101, 5), row(80, 79, 81, 5), higher, "worse"},
		{"higher is better: a rise is better", row(100, 99, 101, 5), row(125, 124, 126, 5), higher, "better"},
		{"no base to compare with", row(0, 0, 0, 5), row(1, 1, 1, 5), lower, "unresolved"},
	} {
		if _, got := verdict(c.old, c.new, c.m); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestDiffReportsExitCode(t *testing.T) {
	spec := &benchmarkFile{EndToEnd: []boundedMetric{{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	rep := func(median float64, failed int) *report {
		return &report{Summary: []summaryRow{{Workload: "w", Metric: "p50_ms", Unit: "ms", Runs: 1, Median: median, Q1: median, Q3: median, Failed: failed}}}
	}
	for _, c := range []struct {
		name     string
		old, new *report
		code     int
		mention  string
	}{
		{"same", rep(10, 0), rep(10.2, 0), 0, "same"},
		{"worse", rep(10, 0), rep(12, 0), 1, "+20.0% of 10 ms"},
		{"better", rep(10, 0), rep(7, 0), 0, "better"},
		{"more failures", rep(10, 0), rep(10, 3), 1, "failed requests rose from 0 to 3"},
	} {
		var out bytes.Buffer
		if code := diffReports(&out, spec, c.old, c.new); code != c.code {
			t.Errorf("%s: exit code %d, want %d\n%s", c.name, code, c.code, out.String())
		}
		if !strings.Contains(out.String(), c.mention) {
			t.Errorf("%s: output lacks %q:\n%s", c.name, c.mention, out.String())
		}
	}
}
