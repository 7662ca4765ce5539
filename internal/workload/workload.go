// Package workload generates the four evaluation datasets of Table 2 and
// drives the storage states of §4.3–§4.5.
//
// The paper's datasets are not redistributable (two are customer data), so
// each preset is a synthetic stand-in that matches the properties the
// experiments actually depend on: total cardinality, collection frequency,
// time-skew (regular high-rate for BallSpeed/MF03, bursty with long gaps
// for KOB/RcvTime) and a slowly varying value process. DESIGN.md §2
// records the substitution rationale.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"m4lsm/internal/lsm"
	"m4lsm/internal/series"
)

// Preset describes one synthetic dataset.
type Preset struct {
	Name string
	// Points is the paper-scale cardinality (Table 2).
	Points int
	// Label describes the paper-scale time range ("71 minutes", ...).
	Label string
	// StartTime anchors the series (epoch milliseconds).
	StartTime int64
	// IntervalMs is the regular collection interval.
	IntervalMs int64
	// GapProb is the per-point probability of a transmission gap.
	GapProb float64
	// GapMaxIntervals bounds a gap's length in units of IntervalMs.
	GapMaxIntervals int64
	// Value generates the value process; pos is the point index.
	Value func(rng *rand.Rand, pos int, prev float64) float64
}

// BallSpeed models the soccer-ball speed sensor: 2000 Hz over 71 minutes,
// 7,193,200 points, near-perfectly regular timestamps, bursty speeds.
func BallSpeed() Preset {
	return Preset{
		Name:       "BallSpeed",
		Points:     7_193_200,
		Label:      "71 minutes",
		StartTime:  1_464_000_000_000,
		IntervalMs: 1, // 2000 Hz sensor stored at ms resolution
		GapProb:    0.00001, GapMaxIntervals: 500,
		Value: func(rng *rand.Rand, pos int, prev float64) float64 {
			// Mostly near zero with occasional kicks decaying away.
			if rng.Float64() < 0.0005 {
				return 20 + rng.Float64()*100
			}
			return math.Max(0, prev*0.999+rng.NormFloat64()*0.3)
		},
	}
}

// MF03 models the manufacturing power sensor: ~100 Hz over 28 hours,
// 10,000,000 points, regular with rare gaps, oscillating load.
func MF03() Preset {
	return Preset{
		Name:       "MF03",
		Points:     10_000_000,
		Label:      "28 hours",
		StartTime:  1_329_000_000_000,
		IntervalMs: 10,
		GapProb:    0.00002, GapMaxIntervals: 1000,
		Value: func(rng *rand.Rand, pos int, prev float64) float64 {
			return 60 + 25*math.Sin(float64(pos)/5000) + rng.NormFloat64()*2
		},
	}
}

// KOB models the customer dataset with a skewed time distribution:
// 1,943,180 points over 4 months — bursts at a 9 s cadence separated by
// long outages, as in Fig. 8(d).
func KOB() Preset {
	return Preset{
		Name:       "KOB",
		Points:     1_943_180,
		Label:      "4 months",
		StartTime:  1_639_000_000_000,
		IntervalMs: 5_000,
		GapProb:    0.002, GapMaxIntervals: 5_000,
		Value: func(rng *rand.Rand, pos int, prev float64) float64 {
			// Step-like industrial setpoints.
			if rng.Float64() < 0.001 {
				return float64(rng.Intn(12)) * 10
			}
			return prev + rng.NormFloat64()*0.1
		},
	}
}

// RcvTime models the second customer dataset: 1,330,764 points over one
// year, heavily skewed arrivals.
func RcvTime() Preset {
	return Preset{
		Name:       "RcvTime",
		Points:     1_330_764,
		Label:      "1 year",
		StartTime:  1_577_000_000_000,
		IntervalMs: 20_000,
		GapProb:    0.004, GapMaxIntervals: 10_000,
		Value: func(rng *rand.Rand, pos int, prev float64) float64 {
			// Receive latencies: baseline with heavy-tailed spikes.
			if rng.Float64() < 0.01 {
				return 100 + rng.ExpFloat64()*400
			}
			return 20 + rng.NormFloat64()*3
		},
	}
}

// Presets returns the four Table 2 datasets in paper order.
func Presets() []Preset {
	return []Preset{BallSpeed(), MF03(), KOB(), RcvTime()}
}

// Generate produces n points of the preset deterministically from seed.
// Use p.Points for paper scale or any smaller n for scaled-down runs; the
// timestamp structure (regularity/skew) is preserved at any scale.
func (p Preset) Generate(n int, seed int64) series.Series {
	rng := rand.New(rand.NewSource(seed))
	out := make(series.Series, 0, n)
	t := p.StartTime
	v := 0.0
	for i := 0; i < n; i++ {
		v = p.Value(rng, i, v)
		out = append(out, series.Point{T: t, V: v})
		t += p.IntervalMs
		if p.GapProb > 0 && rng.Float64() < p.GapProb {
			t += rng.Int63n(p.GapMaxIntervals+1) * p.IntervalMs
		}
	}
	return out
}

// TableRow is one line of the Table 2 reproduction.
type TableRow struct {
	Dataset    string
	TimeRange  string
	Points     int
	SpanMillis int64 // measured span of the generated data at the given n
}

// Table2For regenerates the dataset summary for a chosen preset subset.
func Table2For(presets []Preset, scale float64, seed int64) []TableRow {
	rows := make([]TableRow, 0, len(presets))
	for _, p := range presets {
		n := int(float64(p.Points) * scale)
		if n < 2 {
			n = 2
		}
		data := p.Generate(n, seed)
		rows = append(rows, TableRow{
			Dataset:    p.Name,
			TimeRange:  p.Label,
			Points:     n,
			SpanMillis: data[len(data)-1].T - data[0].T,
		})
	}
	return rows
}

// LoadOptions controls how a series is written into the engine for the
// storage-shape experiments.
type LoadOptions struct {
	// ChunkSize is the points per chunk (the paper uses 1000, Table 4).
	ChunkSize int
	// OverlapFraction in [0, 1] is the fraction of chunks made to
	// overlap a neighbour in time (§4.3): chosen adjacent chunk pairs
	// are written interleaved so both span the union of their ranges.
	OverlapFraction float64
	// Seed drives the random choice of overlapping pairs.
	Seed int64
}

// Load writes data into the engine so that it lands in chunks of exactly
// ChunkSize points with the requested fraction of overlapping chunks, and
// flushes. The engine must use FlushThreshold == ChunkSize.
func Load(e *lsm.Engine, seriesID string, data series.Series, opts LoadOptions) error {
	if opts.ChunkSize <= 0 {
		return fmt.Errorf("workload: ChunkSize must be positive")
	}
	if opts.OverlapFraction < 0 || opts.OverlapFraction > 1 {
		return fmt.Errorf("workload: OverlapFraction %v out of [0,1]", opts.OverlapFraction)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	cs := opts.ChunkSize
	nChunks := (len(data) + cs - 1) / cs
	chunk := func(i int) series.Series {
		lo := i * cs
		hi := lo + cs
		if hi > len(data) {
			hi = len(data)
		}
		return data[lo:hi]
	}
	write := func(pts series.Series) error {
		if err := e.Write(seriesID, pts...); err != nil {
			return err
		}
		return e.Flush()
	}
	for i := 0; i < nChunks; {
		if i+1 < nChunks && rng.Float64() < opts.OverlapFraction {
			// Interleave this pair: both resulting chunks cover the
			// union time range, i.e. they overlap fully. The union's
			// last point goes into the first write so the second write
			// is entirely late (otherwise its trailing points would
			// flush as a separate in-order chunk).
			a, b := chunk(i), chunk(i+1)
			merged := make(series.Series, 0, len(a)+len(b))
			merged = append(merged, a...)
			merged = append(merged, b...)
			firstParity := (len(merged) - 1) % 2
			first := make(series.Series, 0, (len(merged)+1)/2)
			second := make(series.Series, 0, len(merged)/2)
			for j, p := range merged {
				if j%2 == firstParity {
					first = append(first, p)
				} else {
					second = append(second, p)
				}
			}
			if err := write(first); err != nil {
				return err
			}
			if err := write(second); err != nil {
				return err
			}
			i += 2
			continue
		}
		if err := write(chunk(i)); err != nil {
			return err
		}
		i++
	}
	return nil
}

// DeleteOptions drives the delete-shape experiments (§4.4, §4.5).
type DeleteOptions struct {
	// Count is the number of range deletes to issue.
	Count int
	// RangeMillis is the length of each delete range.
	RangeMillis int64
	// Seed drives the random placement of deletes.
	Seed int64
}

// ApplyDeletes issues Count random range deletes of length RangeMillis
// uniformly placed over the data's time range.
func ApplyDeletes(e *lsm.Engine, seriesID string, data series.Series, opts DeleteOptions) error {
	if len(data) == 0 || opts.Count <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	lo, hi := data[0].T, data[len(data)-1].T
	span := hi - lo
	if span <= 0 {
		span = 1
	}
	for i := 0; i < opts.Count; i++ {
		start := lo + rng.Int63n(span)
		if err := e.Delete(seriesID, start, start+opts.RangeMillis); err != nil {
			return err
		}
	}
	return nil
}
