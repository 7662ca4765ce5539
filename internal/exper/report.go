package exper

import (
	"fmt"
	"io"
	"path/filepath"
	"time"

	"m4lsm/internal/encoding"
	"m4lsm/internal/stepreg"
	"m4lsm/internal/tsfile"
	"m4lsm/internal/workload"
)

// WriteTable renders measurements as an aligned text table, one block per
// dataset, matching the shape of the paper's figures (x axis vs the two
// operators).
func WriteTable(w io.Writer, title string, ms []Measurement) {
	fmt.Fprintf(w, "== %s ==\n", title)
	byDataset := groupByDataset(ms)
	for _, group := range byDataset {
		fmt.Fprintf(w, "-- %s --\n", group[0].Dataset)
		fmt.Fprintf(w, "%-16s %12s %12s %8s %10s %10s %10s %10s\n",
			group[0].Param, "M4-UDF", "M4-LSM", "speedup",
			"udfLoads", "lsmLoads", "lsmTimeLd", "lsmPruned")
		for _, m := range group {
			fmt.Fprintf(w, "%-16s %12s %12s %7.1fx %10d %10d %10d %10d\n",
				trimFloat(m.X), fmtDur(m.UDFLatency), fmtDur(m.LSMLatency), m.Speedup(),
				m.UDFStats.ChunksLoaded, m.LSMStats.ChunksLoaded,
				m.LSMStats.TimeBlocksLoaded, m.LSMStats.ChunksPruned)
		}
	}
}

// WriteMarkdown renders measurements as Markdown tables for EXPERIMENTS.md.
func WriteMarkdown(w io.Writer, title string, ms []Measurement) {
	fmt.Fprintf(w, "### %s\n\n", title)
	for _, group := range groupByDataset(ms) {
		fmt.Fprintf(w, "**%s**\n\n", group[0].Dataset)
		fmt.Fprintf(w, "| %s | M4-UDF | M4-LSM | speedup | UDF loads | LSM loads | LSM time-loads | LSM pruned |\n",
			group[0].Param)
		fmt.Fprintf(w, "|---|---|---|---|---|---|---|---|\n")
		for _, m := range group {
			fmt.Fprintf(w, "| %s | %s | %s | %.1fx | %d | %d | %d | %d |\n",
				trimFloat(m.X), fmtDur(m.UDFLatency), fmtDur(m.LSMLatency), m.Speedup(),
				m.UDFStats.ChunksLoaded, m.LSMStats.ChunksLoaded,
				m.LSMStats.TimeBlocksLoaded, m.LSMStats.ChunksPruned)
		}
		fmt.Fprintln(w)
	}
}

func groupByDataset(ms []Measurement) [][]Measurement {
	var order []string
	groups := map[string][]Measurement{}
	for _, m := range ms {
		if _, ok := groups[m.Dataset]; !ok {
			order = append(order, m.Dataset)
		}
		groups[m.Dataset] = append(groups[m.Dataset], m)
	}
	out := make([][]Measurement, 0, len(order))
	for _, name := range order {
		out = append(out, groups[name])
	}
	return out
}

func trimFloat(x float64) string {
	s := fmt.Sprintf("%g", x)
	return s
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
	}
}

// RunTable2 regenerates the dataset summary of Table 2 at the configured
// scale.
func RunTable2(cfg Config) []workload.TableRow {
	cfg = cfg.withDefaults()
	return workload.Table2For(cfg.Datasets, cfg.Scale, cfg.Seed)
}

// WriteTable2 renders the Table 2 reproduction.
func WriteTable2(w io.Writer, rows []workload.TableRow, scale float64) {
	fmt.Fprintf(w, "== Table 2: dataset summary (scale %g) ==\n", scale)
	fmt.Fprintf(w, "%-12s %-18s %12s %16s\n", "Dataset", "Paper time range", "# Points", "Span (days)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-18s %12d %16.2f\n",
			r.Dataset, r.TimeRange, r.Points, float64(r.SpanMillis)/86_400_000)
	}
}

// Fig8Result captures the step-regression reproduction of Figures 8/9: the
// learned slope and splits of a KOB-like chunk plus the delta statistics.
type Fig8Result struct {
	Dataset     string
	ChunkPoints int
	Slope       float64
	MedianDelta int64
	Splits      []int64
	Segments    []stepreg.Segment
	MaxErr      int
}

// RunFig8 writes one chunk per dataset through the chunk writer and
// reports the step regression it fitted (Figure 8 shows the
// timestamp-position steps, Figure 9 the delta distribution driving the
// learned slope), bound to the chunk's timestamps as a query binds it.
func RunFig8(cfg Config) ([]Fig8Result, error) {
	cfg = cfg.withDefaults()
	dir, cleanup, err := tempDir("fig8")
	if err != nil {
		return nil, err
	}
	defer cleanup()
	w, err := tsfile.Create(filepath.Join(dir, "fig8.tsf"))
	if err != nil {
		return nil, err
	}
	defer w.Abort() // only the chunks' metadata is wanted
	out := make([]Fig8Result, 0, len(cfg.Datasets))
	for _, p := range cfg.Datasets {
		data := p.Generate(cfg.ChunkSize, cfg.Seed)
		meta, err := w.WriteChunk(p.Name, 1, encoding.CodecGorilla, data)
		if err != nil {
			return nil, fmt.Errorf("fig8 %s: %w", p.Name, err)
		}
		ts := data.Times()
		ix := stepreg.Bind(meta.Step, ts)
		out = append(out, Fig8Result{
			Dataset:     p.Name,
			ChunkPoints: len(ts),
			Slope:       ix.Slope(),
			MedianDelta: meta.Step.Median,
			Splits:      ix.Splits(),
			Segments:    ix.Segments(),
			MaxErr:      ix.MaxErr(),
		})
	}
	return out, nil
}

// WriteFig8 renders the step-regression reproduction.
func WriteFig8(w io.Writer, results []Fig8Result) {
	fmt.Fprintln(w, "== Figures 8/9: step regression on one chunk per dataset ==")
	for _, r := range results {
		fmt.Fprintf(w, "-- %s: %d points, slope K = 1/%dms, %d segments, maxErr %d --\n",
			r.Dataset, r.ChunkPoints, r.MedianDelta, len(r.Segments), r.MaxErr)
		for _, s := range r.Segments {
			fmt.Fprintf(w, "   %s\n", s)
		}
	}
}

// Titles for the experiments, keyed by the m4paper -exp flag.
var Titles = map[string]string{
	"table2":    "Table 2: dataset summary",
	"fig1":      "Figure 1: pixel error of reductions",
	"fig8":      "Figures 8/9: step regression",
	"fig10":     "Figure 10: varying the number of time spans w",
	"fig11":     "Figure 11: varying query time range",
	"fig12":     "Figure 12: varying chunk overlap percentage",
	"fig13":     "Figure 13: varying delete percentage",
	"fig14":     "Figure 14: varying delete time range",
	"ablations": "Ablations: M4-LSM design choices",
	"faults":    "Fault injection: graceful degradation under chunk-read faults",
}

// ExpNames lists the experiments in presentation order: the paper's
// tables and figures, then the degradation check.
func ExpNames() []string {
	return []string{"table2", "fig1", "fig8", "fig10", "fig11", "fig12", "fig13", "fig14", "ablations", "faults"}
}
