// Package exper is the experiment harness: it rebuilds the storage states
// and queries of the paper's evaluation (§4) and measures both operators.
// Every table and figure of the evaluation section has a Run function here
// and the cmd/m4paper binary prints the result. That is this package's
// whole job: how fast this implementation is gets measured by bench/ (see
// BENCHMARK.json), never here.
//
// Latencies are wall-clock on whatever machine runs the harness. Absolute
// numbers differ from the paper's HDD/Java testbed, so each measurement
// carries the I/O and decode counters alongside: the figures' shapes are
// driven by those counters.
package exper

import (
	"context"
	"fmt"
	"math"
	"os"
	"time"

	"m4lsm/internal/lsm"
	"m4lsm/internal/m4"
	"m4lsm/internal/m4lsm"
	"m4lsm/internal/m4udf"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
	"m4lsm/internal/workload"
)

// Config scopes an experiment run.
type Config struct {
	// Scale shrinks the paper's dataset cardinalities (1 = paper scale,
	// default 0.01 for laptop-quick runs).
	Scale float64
	// ChunkSize is points per chunk (paper: 1000).
	ChunkSize int
	// W is the default number of time spans (paper: 1000).
	W int
	// Reps is how many times each query runs; the minimum latency is
	// reported (cold I/O noise suppression). Default 3.
	Reps int
	// Seed drives all generators.
	Seed int64
	// Parallelism is passed to both operators (0 = GOMAXPROCS, 1 =
	// sequential).
	Parallelism int
	// Datasets to run; defaults to the four Table 2 presets.
	Datasets []workload.Preset
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 0.01
	}
	if c.ChunkSize <= 0 {
		c.ChunkSize = 1000
	}
	if c.W <= 0 {
		c.W = 1000
	}
	if c.Reps <= 0 {
		c.Reps = 3
	}
	if len(c.Datasets) == 0 {
		c.Datasets = workload.Presets()
	}
	return c
}

// Measurement is one point of one figure: a dataset, the varied parameter
// value, and the latency plus cost counters of both operators.
type Measurement struct {
	Dataset string
	Param   string  // name of the varied parameter
	X       float64 // value of the varied parameter

	UDFLatency time.Duration
	LSMLatency time.Duration
	UDFStats   storage.Stats
	LSMStats   storage.Stats
}

// Speedup returns UDF latency / LSM latency.
func (m Measurement) Speedup() float64 {
	if m.LSMLatency <= 0 {
		return math.Inf(1)
	}
	return float64(m.UDFLatency) / float64(m.LSMLatency)
}

// builtDataset is a loaded storage state ready for queries.
type builtDataset struct {
	engine *lsm.Engine
	data   series.Series
	tqs    int64
	tqe    int64 // exclusive end covering all data
}

// build generates the preset at the config's scale and loads it with the
// requested storage shape. The pyramid is off (Table 4: no precomputation),
// which also spares every per-chunk flush of the load a manifest rewrite.
func build(cfg Config, p workload.Preset, overlap float64, del workload.DeleteOptions, dir string) (*builtDataset, error) {
	n := int(float64(p.Points) * cfg.Scale)
	if n < 10 {
		n = 10
	}
	data := p.Generate(n, cfg.Seed)
	e, err := lsm.Open(lsm.Options{Dir: dir, FlushThreshold: cfg.ChunkSize, DisableWAL: true, DisablePyramid: true})
	if err != nil {
		return nil, err
	}
	if err := workload.Load(e, p.Name, data, workload.LoadOptions{
		ChunkSize:       cfg.ChunkSize,
		OverlapFraction: overlap,
		Seed:            cfg.Seed,
	}); err != nil {
		e.Close()
		return nil, err
	}
	if del.Count > 0 {
		if err := workload.ApplyDeletes(e, p.Name, data, del); err != nil {
			e.Close()
			return nil, err
		}
	}
	return &builtDataset{
		engine: e,
		data:   data,
		tqs:    data[0].T,
		tqe:    data[len(data)-1].T + 1,
	}, nil
}

func (b *builtDataset) close() { b.engine.Close() }

// measure runs the query with both operators Reps times and keeps the
// fastest run of each.
func measure(cfg Config, b *builtDataset, name string, q m4.Query) (Measurement, error) {
	m := Measurement{Dataset: name, UDFLatency: math.MaxInt64, LSMLatency: math.MaxInt64}
	for rep := 0; rep < cfg.Reps; rep++ {
		snap, err := b.engine.Snapshot(name, q.Range())
		if err != nil {
			return m, err
		}
		start := time.Now()
		udfAggs, err := m4udf.ComputeContext(context.Background(), snap, q, m4udf.Options{Parallelism: cfg.Parallelism})
		if err != nil {
			return m, err
		}
		if d := time.Since(start); d < m.UDFLatency {
			m.UDFLatency = d
			m.UDFStats = snap.Stats.Load()
		}

		snap, err = b.engine.Snapshot(name, q.Range())
		if err != nil {
			return m, err
		}
		start = time.Now()
		lsmAggs, err := m4lsm.ComputeContext(context.Background(), snap, q, m4lsm.Options{Parallelism: cfg.Parallelism})
		if err != nil {
			return m, err
		}
		if d := time.Since(start); d < m.LSMLatency {
			m.LSMLatency = d
			m.LSMStats = snap.Stats.Load()
		}

		// Sanity: the operators must agree on every span.
		if rep == 0 {
			for i := range lsmAggs {
				if !m4.Equivalent(lsmAggs[i], udfAggs[i]) {
					return m, fmt.Errorf("%s: operators disagree on span %d: lsm %v, udf %v",
						name, i, lsmAggs[i], udfAggs[i])
				}
			}
		}
	}
	return m, nil
}

func tempDir(tag string) (string, func(), error) {
	dir, err := os.MkdirTemp("", "m4lsm-"+tag+"-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// Fig10W is the parameter sweep of §4.1.
var Fig10W = []int{10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000}

// RunFig10 varies the number of time spans w over the full series
// (Figure 10): M4-UDF should be flat, M4-LSM should grow with w but stay
// well below it through w=1000.
func RunFig10(cfg Config) ([]Measurement, error) {
	cfg = cfg.withDefaults()
	var out []Measurement
	for di, p := range cfg.Datasets {
		dir, cleanup, err := tempDir(fmt.Sprintf("fig10-%d", di))
		if err != nil {
			return nil, err
		}
		b, err := build(cfg, p, 0.1, workload.DeleteOptions{}, dir)
		if err != nil {
			cleanup()
			return nil, err
		}
		for _, w := range Fig10W {
			m, err := measure(cfg, b, p.Name, m4.Query{Tqs: b.tqs, Tqe: b.tqe, W: w})
			if err != nil {
				b.close()
				cleanup()
				return nil, err
			}
			m.Param, m.X = "w", float64(w)
			out = append(out, m)
		}
		b.close()
		cleanup()
	}
	return out, nil
}

// Fig11Fractions is the query-range sweep of §4.2, as fractions of the
// full series range.
var Fig11Fractions = []float64{1.0 / 16, 1.0 / 8, 1.0 / 4, 1.0 / 2, 1}

// RunFig11 varies the query time range length (Figure 11): M4-UDF grows
// steeply with the range; M4-LSM grows slowly.
func RunFig11(cfg Config) ([]Measurement, error) {
	cfg = cfg.withDefaults()
	var out []Measurement
	for di, p := range cfg.Datasets {
		dir, cleanup, err := tempDir(fmt.Sprintf("fig11-%d", di))
		if err != nil {
			return nil, err
		}
		b, err := build(cfg, p, 0.1, workload.DeleteOptions{}, dir)
		if err != nil {
			cleanup()
			return nil, err
		}
		full := b.tqe - b.tqs
		for _, f := range Fig11Fractions {
			tqe := b.tqs + int64(float64(full)*f)
			if tqe <= b.tqs {
				tqe = b.tqs + 1
			}
			m, err := measure(cfg, b, p.Name, m4.Query{Tqs: b.tqs, Tqe: tqe, W: cfg.W})
			if err != nil {
				b.close()
				cleanup()
				return nil, err
			}
			m.Param, m.X = "rangeFraction", f
			out = append(out, m)
		}
		b.close()
		cleanup()
	}
	return out, nil
}

// Fig12Overlaps is the chunk-overlap sweep of §4.3.
var Fig12Overlaps = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}

// RunFig12 varies the chunk overlap percentage (Figure 12): M4-UDF grows
// with overlap (merge CPU), M4-LSM stays nearly constant (merge free).
func RunFig12(cfg Config) ([]Measurement, error) {
	cfg = cfg.withDefaults()
	var out []Measurement
	for di, p := range cfg.Datasets {
		for oi, overlap := range Fig12Overlaps {
			dir, cleanup, err := tempDir(fmt.Sprintf("fig12-%d-%d", di, oi))
			if err != nil {
				return nil, err
			}
			b, err := build(cfg, p, overlap, workload.DeleteOptions{}, dir)
			if err != nil {
				cleanup()
				return nil, err
			}
			m, err := measure(cfg, b, p.Name, m4.Query{Tqs: b.tqs, Tqe: b.tqe, W: cfg.W})
			b.close()
			cleanup()
			if err != nil {
				return nil, err
			}
			m.Param, m.X = "overlapPct", overlap*100
			out = append(out, m)
		}
	}
	return out, nil
}

// Fig13DeletePcts is the delete-frequency sweep of §4.4: deletes issued
// as a percentage of the chunk count.
var Fig13DeletePcts = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}

// RunFig13 varies the delete percentage (Figure 13): M4-UDF stays flat,
// M4-LSM grows mildly but remains small.
func RunFig13(cfg Config) ([]Measurement, error) {
	cfg = cfg.withDefaults()
	var out []Measurement
	for di, p := range cfg.Datasets {
		for pi, pct := range Fig13DeletePcts {
			dir, cleanup, err := tempDir(fmt.Sprintf("fig13-%d-%d", di, pi))
			if err != nil {
				return nil, err
			}
			n := int(float64(p.Points) * cfg.Scale)
			if n < 10 {
				n = 10
			}
			nChunks := (n + cfg.ChunkSize - 1) / cfg.ChunkSize
			del := workload.DeleteOptions{
				Count:       int(float64(nChunks) * pct),
				RangeMillis: avgChunkSpan(p, cfg) / 10, // small vs chunk span (§4.4)
				Seed:        cfg.Seed + int64(pi),
			}
			b, err := build(cfg, p, 0.1, del, dir)
			if err != nil {
				cleanup()
				return nil, err
			}
			m, err := measure(cfg, b, p.Name, m4.Query{Tqs: b.tqs, Tqe: b.tqe, W: cfg.W})
			b.close()
			cleanup()
			if err != nil {
				return nil, err
			}
			m.Param, m.X = "deletePct", pct*100
			out = append(out, m)
		}
	}
	return out, nil
}

// Fig14RangeMultipliers is the delete-range sweep of §4.5, in units of
// the average chunk time span.
var Fig14RangeMultipliers = []float64{0.5, 1, 2, 4, 8}

// RunFig14 fixes the number of deletes and varies the delete time range
// (Figure 14): M4-UDF decreases as whole chunks die; M4-LSM stays small.
func RunFig14(cfg Config) ([]Measurement, error) {
	cfg = cfg.withDefaults()
	var out []Measurement
	for di, p := range cfg.Datasets {
		for mi, mult := range Fig14RangeMultipliers {
			dir, cleanup, err := tempDir(fmt.Sprintf("fig14-%d-%d", di, mi))
			if err != nil {
				return nil, err
			}
			n := int(float64(p.Points) * cfg.Scale)
			if n < 10 {
				n = 10
			}
			nChunks := (n + cfg.ChunkSize - 1) / cfg.ChunkSize
			del := workload.DeleteOptions{
				Count:       nChunks / 10, // fixed 10% of chunks
				RangeMillis: int64(float64(avgChunkSpan(p, cfg)) * mult),
				Seed:        cfg.Seed,
			}
			if del.Count < 1 {
				del.Count = 1
			}
			b, err := build(cfg, p, 0.1, del, dir)
			if err != nil {
				cleanup()
				return nil, err
			}
			m, err := measure(cfg, b, p.Name, m4.Query{Tqs: b.tqs, Tqe: b.tqe, W: cfg.W})
			b.close()
			cleanup()
			if err != nil {
				return nil, err
			}
			m.Param, m.X = "deleteRangeMult", mult
			out = append(out, m)
		}
	}
	return out, nil
}

// avgChunkSpan estimates the time covered by one chunk of the preset.
func avgChunkSpan(p workload.Preset, cfg Config) int64 {
	// Expected interval = base interval * (1 + gapProb * gapMax/2).
	exp := float64(p.IntervalMs) * (1 + p.GapProb*float64(p.GapMaxIntervals)/2)
	return int64(exp * float64(cfg.ChunkSize))
}
