package exper

import (
	"fmt"
	"io"

	"m4lsm/internal/m4"
	"m4lsm/internal/reprops"
	"m4lsm/internal/series"
	"m4lsm/internal/viz"
)

// technique is one reduction of the Figure 1 comparison: given the span
// structure of a query and the merged series, the point set to render.
type technique struct {
	name   string
	reduce func(q m4.Query, s series.Series) (series.Series, error)
}

// techniques lists the reductions the paper positions M4 against (§5.1)
// in presentation order. The four the engine can execute are reprops'
// own implementations, so the figure measures what the query path
// produces; sampling and PAA are comparison-only and live here, not in
// reprops, so the engine has no reduction it cannot run.
func techniques() []technique {
	display := map[reprops.Kind]string{
		reprops.KindM4: "M4", reprops.KindMinMax: "MinMax",
		reprops.KindLTTB: "LTTB", reprops.KindMinMaxLTTB: "MinMaxLTTB",
	}
	var out []technique
	for _, spec := range reprops.Specs() {
		out = append(out, technique{display[spec.Kind], func(q m4.Query, s series.Series) (series.Series, error) {
			return reprops.Reduce(spec, q, s)
		}})
	}
	return append(out, technique{"Sampling", sample}, technique{"PAA", paa})
}

// sample keeps the first point of each span (systematic sampling with one
// point per pixel column, the classic dashboard downsampler).
func sample(q m4.Query, s series.Series) (series.Series, error) {
	aggs, err := m4.ComputeSeries(q, s)
	if err != nil {
		return nil, err
	}
	var out series.Series
	for _, a := range aggs {
		if !a.Empty {
			out = append(out, a.First)
		}
	}
	return out, nil
}

// paa replaces each span with its mean value placed at the span's first
// timestamp (Piecewise Aggregate Approximation, Keogh et al.).
func paa(q m4.Query, s series.Series) (series.Series, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	sums := make([]float64, q.W)
	counts := make([]int64, q.W)
	firsts := make([]int64, q.W)
	for _, p := range s {
		i := q.SpanIndex(p.T)
		if i < 0 {
			continue
		}
		if counts[i] == 0 {
			firsts[i] = p.T
		}
		sums[i] += p.V
		counts[i]++
	}
	var out series.Series
	for i := 0; i < q.W; i++ {
		if counts[i] == 0 {
			continue
		}
		out = append(out, series.Point{T: firsts[i], V: sums[i] / float64(counts[i])})
	}
	return out, nil
}

// PixelRow is one measurement of the Figure 1 reproduction: how many
// pixels a reduction technique gets wrong relative to rendering the full
// series.
type PixelRow struct {
	Dataset    string
	Technique  string
	PointsIn   int
	PointsKept int
	LitPixels  int // pixels lit by the full series
	PixelError int // differing pixels vs. the full rendering
}

// RunFig1 reproduces the motivation of §1/§5.1: render each dataset at
// 1000x500 pixels (Fig. 1's canvas) from the full series and from each
// reduction, and count differing pixels. M4's error must be zero.
func RunFig1(cfg Config) ([]PixelRow, error) {
	cfg = cfg.withDefaults()
	const width, height = 1000, 500
	var out []PixelRow
	for _, p := range cfg.Datasets {
		n := int(float64(p.Points) * cfg.Scale)
		if n < 10 {
			n = 10
		}
		data := p.Generate(n, cfg.Seed)
		q := m4.Query{Tqs: data[0].T, Tqe: data[len(data)-1].T + 1, W: width}
		vp := viz.ViewportFor(data, q.Tqs, q.Tqe)
		full := viz.Rasterize(data, vp, width, height)
		for _, tech := range techniques() {
			reduced, err := tech.reduce(q, data)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", p.Name, tech.name, err)
			}
			canvas := viz.Rasterize(reduced, vp, width, height)
			out = append(out, PixelRow{
				Dataset:    p.Name,
				Technique:  tech.name,
				PointsIn:   len(data),
				PointsKept: len(reduced),
				LitPixels:  full.Count(),
				PixelError: viz.Diff(full, canvas),
			})
		}
	}
	return out, nil
}

// WriteFig1 renders the pixel-error comparison.
func WriteFig1(w io.Writer, rows []PixelRow) {
	fmt.Fprintln(w, "== Figure 1: pixel error of reductions at 1000x500 (0 = error-free) ==")
	fmt.Fprintf(w, "%-12s %-10s %10s %10s %10s %12s\n",
		"Dataset", "Technique", "points", "kept", "lit px", "pixel error")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-10s %10d %10d %10d %12d\n",
			r.Dataset, r.Technique, r.PointsIn, r.PointsKept, r.LitPixels, r.PixelError)
	}
}
