package exper

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"m4lsm/internal/lsm"
	"m4lsm/internal/m4"
	"m4lsm/internal/m4lsm"
	"m4lsm/internal/reprops"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
	"m4lsm/internal/viz"
	"m4lsm/internal/workload"
)

// ReprW is the span-count sweep of the representation comparison: the
// pixel widths a dashboard actually asks for.
var ReprW = []int{100, 250, 500, 1000}

// reprSpecs is the operator sweep: M4 as the error-free baseline, MinMax
// as the cheapest metadata-only reduction, LTTB as the quality ceiling of
// the selection family, and MinMaxLTTB at two preselection ratios.
func reprSpecs() []reprops.Spec {
	return []reprops.Spec{
		{Kind: reprops.KindM4},
		{Kind: reprops.KindMinMax},
		{Kind: reprops.KindLTTB},
		{Kind: reprops.KindMinMaxLTTB, Ratio: 2},
		{Kind: reprops.KindMinMaxLTTB, Ratio: reprops.DefaultRatio},
	}
}

// ReprRow is one sweep point: an operator answering one dataset at one
// span count through the LSM path, with its cost counters and its
// pixel-level fidelity against rendering the full series.
type ReprRow struct {
	Dataset    string
	Spec       string
	W          int
	Latency    time.Duration
	PointsKept int
	Stats      storage.Stats
	PixelError int     // differing pixels vs. the full-series raster
	DSSIM      float64 // structural dissimilarity vs. the same raster
}

// RunRepr sweeps representation operators × span counts over the Table 2
// presets: each operator answers through the real LSM read path, and the
// result is rasterized at w×(w/2) pixels against the full series. This is
// the quality-versus-cost picture: M4 is pixel-exact but returns 4 points
// per span, LTTB is the smoothest w-point answer but must read every
// chunk, and MinMaxLTTB buys most of LTTB's quality at MinMax prices.
func RunRepr(cfg Config) ([]ReprRow, error) {
	cfg = cfg.withDefaults()
	var out []ReprRow
	for di, p := range cfg.Datasets {
		dir, cleanup, err := tempDir(cfg, fmt.Sprintf("repr-%d", di))
		if err != nil {
			return nil, err
		}
		b, err := build(cfg, p, 0.1, workload.DeleteOptions{}, dir, true)
		if err != nil {
			cleanup()
			return nil, err
		}
		for _, w := range ReprW {
			q := m4.Query{Tqs: b.tqs, Tqe: b.tqe, W: w}
			vp := viz.ViewportFor(b.data, q.Tqs, q.Tqe)
			full := viz.Rasterize(b.data, vp, w, w/2)
			for _, spec := range reprSpecs() {
				row := ReprRow{Dataset: p.Name, Spec: spec.String(), W: w, Latency: math.MaxInt64}
				var reduced series.Series
				for rep := 0; rep < cfg.Reps; rep++ {
					snap, err := b.engine.Snapshot(p.Name, q.Range())
					if err != nil {
						b.close()
						cleanup()
						return nil, err
					}
					start := time.Now()
					s, err := m4lsm.Reduce(snap, q, spec)
					if err != nil {
						b.close()
						cleanup()
						return nil, fmt.Errorf("%s/%s/w=%d: %w", p.Name, spec, w, err)
					}
					if d := time.Since(start); d < row.Latency {
						row.Latency = d
						row.Stats = snap.Stats.Load()
						reduced = s
					}
				}
				canvas := viz.Rasterize(reduced, vp, w, w/2)
				row.PointsKept = len(reduced)
				row.PixelError = viz.Diff(full, canvas)
				row.DSSIM = viz.DSSIM(full, canvas)
				out = append(out, row)
			}
		}
		b.close()
		cleanup()
	}
	return out, nil
}

// ReprPyramidCheck records the metadata-only claim for MinMax: on a dense
// cell-aligned query, both aggregate waves answer from pyramid cells and
// span metadata without loading a single chunk.
type ReprPyramidCheck struct {
	Points      int
	W           int
	Latency     time.Duration
	Stats       storage.Stats
	LTTBStats   storage.Stats // the contrast: LTTB over the same state
	LTTBLatency time.Duration
	// MinMaxLTTB at the default ratio: its preselection spans are still
	// base-cell multiples on this workload, so it inherits the zero-chunk
	// property while producing an LTTB-shaped answer.
	MMLTTBStats   storage.Stats
	MMLTTBLatency time.Duration
	ChunksInDB    int
	OracleEqual   bool
}

// RunReprPyramid builds the pyramid sweep's dense workload at 2^17 points
// and answers a cell-aligned MinMax query: like M4, it must come entirely
// from rollup cells (ChunksLoaded == 0, PyramidSpans == w), because BP/TP
// are exactly the rolled-up aggregates. LTTB over the same state is the
// counterpoint — it has no metadata path and must load every chunk.
func RunReprPyramid(cfg Config) (ReprPyramidCheck, error) {
	cfg = cfg.withDefaults()
	const n = 1 << 17
	c := ReprPyramidCheck{Points: n, W: PyramidW, Latency: math.MaxInt64, LTTBLatency: math.MaxInt64, MMLTTBLatency: math.MaxInt64}
	dir, cleanup, err := tempDir(cfg, "repr-pyramid")
	if err != nil {
		return c, err
	}
	defer cleanup()
	const name = "repr.pyramid"
	e, err := lsm.Open(lsm.Options{Dir: dir, FlushThreshold: cfg.ChunkSize, DisableWAL: true})
	if err != nil {
		return c, err
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(cfg.Seed))
	const batch = 4096
	buf := make([]series.Point, 0, batch)
	v := 0.0
	for t := 0; t < n; t++ {
		v += rng.Float64()*2 - 1
		buf = append(buf, series.Point{T: int64(t), V: v})
		if len(buf) == batch {
			if err := e.Write(name, buf...); err != nil {
				return c, err
			}
			buf = buf[:0]
		}
	}
	if err := e.Flush(); err != nil {
		return c, err
	}
	c.ChunksInDB = (n + cfg.ChunkSize - 1) / cfg.ChunkSize

	q := m4.Query{Tqs: 0, Tqe: n, W: PyramidW}
	minmax := reprops.Spec{Kind: reprops.KindMinMax}
	var got series.Series
	for rep := 0; rep < cfg.Reps; rep++ {
		snap, err := e.Snapshot(name, q.Range())
		if err != nil {
			return c, err
		}
		start := time.Now()
		s, err := m4lsm.Reduce(snap, q, minmax)
		if err != nil {
			return c, err
		}
		if d := time.Since(start); d < c.Latency {
			c.Latency = d
			c.Stats = snap.Stats.Load()
			got = s
		}

		snap, err = e.Snapshot(name, q.Range())
		if err != nil {
			return c, err
		}
		start = time.Now()
		if _, err := m4lsm.Reduce(snap, q, reprops.Spec{Kind: reprops.KindLTTB}); err != nil {
			return c, err
		}
		if d := time.Since(start); d < c.LTTBLatency {
			c.LTTBLatency = d
			c.LTTBStats = snap.Stats.Load()
		}

		snap, err = e.Snapshot(name, q.Range())
		if err != nil {
			return c, err
		}
		start = time.Now()
		if _, err := m4lsm.Reduce(snap, q, reprops.Spec{Kind: reprops.KindMinMaxLTTB}); err != nil {
			return c, err
		}
		if d := time.Since(start); d < c.MMLTTBLatency {
			c.MMLTTBLatency = d
			c.MMLTTBStats = snap.Stats.Load()
		}
	}
	if c.Stats.ChunksLoaded != 0 {
		return c, fmt.Errorf("minmax loaded %d chunks on a cell-aligned query, want 0", c.Stats.ChunksLoaded)
	}
	if c.Stats.PyramidSpans == 0 {
		return c, fmt.Errorf("minmax answered zero spans from the pyramid (silent fallback)")
	}

	// Oracle cross-check over the raw generated data.
	raw := make(series.Series, n)
	rng = rand.New(rand.NewSource(cfg.Seed))
	v = 0.0
	for t := 0; t < n; t++ {
		v += rng.Float64()*2 - 1
		raw[t] = series.Point{T: int64(t), V: v}
	}
	want, err := reprops.Reduce(minmax, q, raw)
	if err != nil {
		return c, err
	}
	c.OracleEqual = len(got) == len(want)
	if c.OracleEqual {
		for i := range got {
			if got[i] != want[i] {
				c.OracleEqual = false
				break
			}
		}
	}
	if !c.OracleEqual {
		return c, fmt.Errorf("minmax pyramid answer diverges from the oracle reduction")
	}
	return c, nil
}

// ReprTitle names the sweep.
func ReprTitle() string {
	return "Representation operators: quality vs cost across w"
}

// WriteRepr renders the sweep grouped by dataset, with the pyramid check
// appended.
func WriteRepr(w io.Writer, title string, rows []ReprRow, check ReprPyramidCheck) {
	fmt.Fprintf(w, "== %s ==\n", title)
	fmt.Fprintf(w, "%-12s %-14s %6s %12s %8s %10s %10s %10s %8s\n",
		"Dataset", "Operator", "w", "latency", "kept", "chunks", "pyrSpans", "pixelErr", "dssim")
	last := ""
	for _, r := range rows {
		if r.Dataset != last && last != "" {
			fmt.Fprintln(w)
		}
		last = r.Dataset
		fmt.Fprintf(w, "%-12s %-14s %6d %12s %8d %10d %10d %10d %8.4f\n",
			r.Dataset, r.Spec, r.W, r.Latency.Round(time.Microsecond), r.PointsKept,
			r.Stats.ChunksLoaded, r.Stats.PyramidSpans, r.PixelError, r.DSSIM)
	}
	fmt.Fprintf(w, "\n-- MinMax pyramid check: %d dense points, w=%d --\n", check.Points, check.W)
	fmt.Fprintf(w, "minmax: %s, chunksLoaded=%d of %d, pyrSpans=%d, oracleEqual=%v\n",
		check.Latency.Round(time.Microsecond), check.Stats.ChunksLoaded, check.ChunksInDB,
		check.Stats.PyramidSpans, check.OracleEqual)
	fmt.Fprintf(w, "lttb:   %s, chunksLoaded=%d (no metadata path exists for it)\n",
		check.LTTBLatency.Round(time.Microsecond), check.LTTBStats.ChunksLoaded)
	fmt.Fprintf(w, "minmaxlttb: %s, chunksLoaded=%d, pyrSpans=%d (preselection rides the pyramid)\n",
		check.MMLTTBLatency.Round(time.Microsecond), check.MMLTTBStats.ChunksLoaded,
		check.MMLTTBStats.PyramidSpans)
}
