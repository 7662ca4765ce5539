package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// report is the content of bench/out/result.json: the environment, every
// run made, and per (workload, metric) the median and quartiles across the
// untraced runs — what -diff compares.
type report struct {
	Env     environment  `json:"env"`
	Seed    int64        `json:"seed"`
	Seconds int          `json:"seconds"`
	Runs    []*runResult `json:"runs"`
	Summary []summaryRow `json:"summary"`
}

// summaryRow condenses one metric of one workload across runs.
type summaryRow struct {
	Workload string  `json:"workload"`
	Traced   bool    `json:"traced"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Runs     int     `json:"runs"`
	Samples  int     `json:"samples"` // of the last run
	Q1       float64 `json:"q1"`
	Median   float64 `json:"median"`
	Q3       float64 `json:"q3"`
	Failed   int     `json:"failed"` // summed over the runs
}

func newReport(seed int64, seconds int, dir string) *report {
	return &report{Env: probeEnvironment(dir), Seed: seed, Seconds: seconds}
}

func (rp *report) add(r *runResult) { rp.Runs = append(rp.Runs, r) }

// summarize groups the runs by (workload, traced, metric), keeping first
// appearance order.
func (rp *report) summarize() {
	type key struct {
		workload string
		traced   bool
		metric   string
	}
	values := map[key][]float64{}
	rows := map[key]*summaryRow{}
	var order []key
	for _, r := range rp.Runs {
		for _, m := range r.Metrics {
			k := key{r.Workload, r.Traced, m.Name}
			if rows[k] == nil {
				rows[k] = &summaryRow{Workload: r.Workload, Traced: r.Traced, Metric: m.Name, Unit: m.Unit}
				order = append(order, k)
			}
			values[k] = append(values[k], m.Value)
			rows[k].Samples = m.Samples
			rows[k].Failed += r.Failed
		}
	}
	rp.Summary = rp.Summary[:0]
	for _, k := range order {
		row := rows[k]
		row.Runs = len(values[k])
		row.Q1, row.Median, row.Q3 = quartiles(values[k])
		rp.Summary = append(rp.Summary, *row)
	}
}

// print writes one line per metric: workload, metric, value, unit, sample
// count; with several runs the value is the median, followed by the
// interquartile spread as a share of it.
func (rp *report) print(w io.Writer) {
	rp.summarize()
	for _, row := range rp.Summary {
		fmt.Fprintf(w, "%-13s %-36s %14.4f %-6s n=%d", row.Workload, row.Metric, row.Median, row.Unit, row.Samples)
		if row.Runs > 1 && row.Median != 0 {
			fmt.Fprintf(w, "  runs=%d spread=%.1f%%", row.Runs, 100*(row.Q3-row.Q1)/row.Median)
		}
		fmt.Fprintln(w)
	}
	for _, r := range rp.Runs {
		for _, note := range r.Notes {
			fmt.Fprintf(w, "# %s: %s\n", r.Workload, note)
		}
		for _, e := range r.Errors {
			fmt.Fprintf(w, "# %s: FAILED: %s\n", r.Workload, e)
		}
	}
}

func (rp *report) write(path string) error {
	rp.summarize()
	data, err := json.MarshalIndent(rp, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rp report
	if err := json.Unmarshal(data, &rp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rp, nil
}
