package obs

import "math"

// SampleKind discriminates the exposition type of one Sample.
type SampleKind uint8

const (
	// SampleCounter covers both atomic and func-backed counters.
	SampleCounter SampleKind = iota
	// SampleGauge covers both atomic and func-backed gauges.
	SampleGauge
	// SampleHistogram is a fixed-bucket distribution.
	SampleHistogram
)

// Sample is one instrument's state at a point in time, the unit the
// self-observability sampler (internal/obs/history) persists into the
// engine. Counters and gauges carry Value; histograms carry Hist.
type Sample struct {
	Name   string
	Labels []string // k1, v1, k2, v2, ... as registered
	Kind   SampleKind

	Value float64          // counters and gauges
	Hist  *HistogramSample // histograms only
}

// HistogramSample is a histogram's state: per-bucket cumulative counts
// (len(Bounds)+1, the last being the +Inf overflow), total count and sum.
type HistogramSample struct {
	Bounds []float64
	Counts []int64 // cumulative, Counts[i] = observations <= Bounds[i]
	Count  int64
	Sum    float64
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucket counts
// with linear interpolation inside the owning bucket, the standard
// fixed-bucket estimate (what Prometheus' histogram_quantile computes).
// Conventions for the edges: an empty histogram reports 0 (never NaN — the
// value is JSON-encoded); a quantile landing in the +Inf overflow bucket
// reports the highest finite bound (the histogram cannot resolve beyond
// it); the first bucket interpolates from 0.
func (h *HistogramSample) Quantile(q float64) float64 {
	if h == nil || h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	// Find the first bucket whose cumulative count reaches the rank.
	for i, bound := range h.Bounds {
		cum := float64(h.Counts[i])
		if cum < rank {
			continue
		}
		lower := 0.0
		prev := 0.0
		if i > 0 {
			lower = h.Bounds[i-1]
			prev = float64(h.Counts[i-1])
		}
		inBucket := cum - prev
		if inBucket <= 0 {
			return bound
		}
		return lower + (bound-lower)*(rank-prev)/inBucket
	}
	// Rank lands in the +Inf overflow bucket.
	return h.Bounds[len(h.Bounds)-1]
}

// Quantiles estimates several quantiles from one consistent bucket
// snapshot.
func (h *Histogram) Quantiles(qs ...float64) []float64 {
	hs := h.sample()
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = hs.Quantile(q)
	}
	return out
}

// sample snapshots the histogram's buckets (nil receiver: empty sample).
func (h *Histogram) sample() *HistogramSample {
	if h == nil {
		return nil
	}
	return h.in.hist.sample()
}

func (b *histogramBuckets) sample() *HistogramSample {
	hs := &HistogramSample{
		Bounds: b.bounds,
		Counts: make([]int64, len(b.bounds)+1),
		Count:  b.count.Load(),
		Sum:    math.Float64frombits(b.sumBits.Load()),
	}
	cum := int64(0)
	for i := range b.counts {
		cum += b.counts[i].Load()
		hs.Counts[i] = cum
	}
	return hs
}

// Samples walks every instrument and returns its current state, ordered by
// (name, labels) — the same deterministic order as the Prometheus
// exposition, which the history sampler relies on for a stable series set.
// A nil registry returns nil.
func (r *Registry) Samples() []Sample {
	if r == nil {
		return nil
	}
	ins := r.sorted()
	out := make([]Sample, 0, len(ins))
	for _, in := range ins {
		s := Sample{Name: in.name, Labels: in.labelKVs}
		switch in.kind {
		case kindCounter:
			s.Kind = SampleCounter
			s.Value = float64(in.val.Load())
		case kindGauge:
			s.Kind = SampleGauge
			s.Value = float64(in.val.Load())
		case kindFuncCounter:
			s.Kind = SampleCounter
			s.Value = in.fn()
		case kindFuncGauge:
			s.Kind = SampleGauge
			s.Value = in.fn()
		case kindHistogram:
			s.Kind = SampleHistogram
			s.Hist = in.hist.sample()
		}
		out = append(out, s)
	}
	return out
}
