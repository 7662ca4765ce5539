package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json that -diff and the tests read.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// verdict compares one metric of one workload across two result files.
// spread is the wider of the two sides' run-to-run interquartile distances,
// as a share of its median.
func verdict(old, new summaryRow, m boundedMetric) (spread float64, word string) {
	if old.Median == 0 {
		return 0, "unresolved"
	}
	// How much worse the new median is, as a share of the old one.
	worse := (new.Median - old.Median) / old.Median
	if m.Better == "higher" {
		worse = -worse
	}
	for _, r := range []summaryRow{old, new} {
		if r.Runs > 1 && r.Median != 0 {
			spread = max(spread, (r.Q3-r.Q1)/r.Median)
		}
	}
	switch {
	case spread > m.Bound:
		word = "unresolved"
	case worse > m.Bound:
		word = "worse"
	case worse < -m.Bound:
		word = "better"
	default:
		word = "same"
	}
	return spread, word
}

// runDiff prints one row per end-to-end metric and workload and returns the
// exit code: 1 when any metric is worse than its bound allows or more
// requests failed than before, 2 when the files cannot be compared.
func runDiff(w io.Writer, oldPath, newPath string) int {
	spec, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(w, "bench: -diff reads the bounds from BENCHMARK.json in the current directory:", err)
		return 2
	}
	oldRep, err := readReport(oldPath)
	if err == nil {
		var newRep *report
		if newRep, err = readReport(newPath); err == nil {
			return diffReports(w, spec, oldRep, newRep)
		}
	}
	fmt.Fprintln(w, "bench:", err)
	return 2
}

func diffReports(w io.Writer, spec *benchmarkFile, oldRep, newRep *report) int {
	find := func(rp *report, workload, name string) (summaryRow, bool) {
		for _, row := range rp.Summary {
			if row.Workload == workload && row.Metric == name && !row.Traced {
				return row, true
			}
		}
		return summaryRow{}, false
	}
	code := 0
	fmt.Fprintf(w, "%-13s %-22s %14s %14s %22s %7s %8s  %s\n", "workload", "metric", "old", "new", "change", "bound", "spread", "verdict")
	for _, wl := range spec.Workloads {
		failedOld, failedNew := 0, 0
		for _, m := range spec.EndToEnd {
			o, okOld := find(oldRep, wl.Name, m.Name)
			n, okNew := find(newRep, wl.Name, m.Name)
			if !okOld || !okNew {
				continue
			}
			failedOld, failedNew = o.Failed, n.Failed
			spread, word := verdict(o, n, m)
			if word == "worse" {
				code = 1
			}
			change := fmt.Sprintf("%+.1f%% of %.4g %s", 100*(n.Median-o.Median)/o.Median, o.Median, m.Unit)
			fmt.Fprintf(w, "%-13s %-22s %14.4f %14.4f %22s %6.0f%% %7.1f%%  %s\n", wl.Name, m.Name, o.Median, n.Median, change, 100*m.Bound, 100*spread, word)
		}
		if failedNew > failedOld {
			fmt.Fprintf(w, "%-13s failed requests rose from %d to %d\n", wl.Name, failedOld, failedNew)
			code = 1
		}
	}
	return code
}
