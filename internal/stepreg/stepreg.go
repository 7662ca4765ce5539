// Package stepreg implements the chunk index of §3.5 of the paper: a step
// regression over the timestamp→position map of a chunk.
//
// Sensor timestamps inside a chunk follow a step pattern: long runs at a
// fixed collection frequency (the "tilt" parts, slope K) interrupted by
// occasional transmission gaps (the "level" parts, slope 0). The index
// learns the slope K as 1/median(Δt) and the split timestamps from the
// changing points selected by the 3-sigma rule on Δt, then answers the three
// probe shapes of Definition 3.5:
//
//	(a)   Exists(t)      — is there a data point at exactly t?
//	(b-1) FirstAfter(t)  — position of the closest point with time > t
//	(b-2) LastBefore(t)  — position of the closest point with time < t
//
// The learned function is a heuristic fit; to stay exact on arbitrary data
// the index records the maximum prediction error observed at build time and
// finishes every probe with a binary search inside that error window. On
// step-shaped data the window is a handful of positions, so probes touch
// O(1) cache lines instead of O(log n).
package stepreg

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Probe is the chunk-index interface consumed by the M4-LSM operator.
// Positions are 0-based indexes into the chunk's timestamp slice.
type Probe interface {
	// Exists reports whether a data point exists at exactly t.
	Exists(t int64) bool
	// FirstAfter returns the position of the closest data point with
	// time strictly greater than t, and false if no such point exists.
	FirstAfter(t int64) (int, bool)
	// LastBefore returns the position of the closest data point with
	// time strictly less than t, and false if no such point exists.
	LastBefore(t int64) (int, bool)
}

// Index is a step-regression chunk index over a sorted timestamp slice.
// The zero value is not usable; call Build.
type Index struct {
	ts []int64 // the indexed timestamps, strictly increasing

	// Learned parameters (§3.5.1–3.5.3). Positions in the model are
	// 1-based, matching the paper; probes convert to 0-based.
	k          float64   // slope K = 1/median(Δt), in positions per ms
	splits     []int64   // split timestamps S = {t_1..t_m}
	intercepts []float64 // b_1..b_{m-1}, one per segment

	maxErr int // max |f(t_i) - i| observed over the chunk at build time
}

// Build learns a step-regression index over ts, which must be strictly
// increasing (chunk writers guarantee this).
func Build(ts []int64) *Index { return BuildScratch(ts, new([]int64)) }

// BuildScratch is Build with caller-owned working memory: the sorted time
// deltas go into *scratch, grown as needed and left there for the next
// build, so a build allocates only the Index and its two model slices. The
// index does not keep the scratch.
func BuildScratch(ts []int64, scratch *[]int64) *Index {
	ix := &Index{ts: ts}
	n := len(ts)
	if n < 2 {
		// A 0/1-point chunk needs no model; probes fall through to the
		// (trivial) search window.
		ix.k = 1
		if n == 1 {
			ix.splits = []int64{ts[0], ts[0]}
			ix.intercepts = []float64{1}
		}
		return ix
	}

	deltas := slices.Grow((*scratch)[:0], n-1)[:n-1]
	*scratch = deltas
	for i := 1; i < n; i++ {
		deltas[i-1] = ts[i] - ts[i-1]
	}
	// The 3-sigma threshold is taken before the in-place sort: its float
	// sums must run in time order for the model to stay bit-identical.
	mu, sigma := meanStd(deltas)
	thr := mu + 3*sigma
	slices.Sort(deltas)
	med := deltas[len(deltas)/2]
	if med <= 0 {
		med = 1
	}
	ix.k = 1 / float64(med)

	// Changing points: 1-based positions j (2..n-1) where the delta
	// crosses the threshold in either direction (§3.5.3). One pass counts
	// them to size the model, a second places them.
	crosses := func(j int) bool {
		dPrev := float64(ts[j-1] - ts[j-2]) // P_j.t - P_{j-1}.t, 1-based
		dNext := float64(ts[j] - ts[j-1])   // P_{j+1}.t - P_j.t
		return (dPrev <= thr && dNext > thr) || (dPrev > thr && dNext <= thr)
	}
	changing := 0
	for j := 2; j <= n-1; j++ {
		if crosses(j) {
			changing++
		}
	}

	m := changing + 2 // |S|
	nseg := m - 1
	b := make([]float64, nseg+1) // 1-based b_1..b_{m-1}
	b[1] = 1 - ix.k*float64(ts[0])
	if nseg >= 2 {
		if nseg%2 == 1 {
			b[nseg] = float64(n) - ix.k*float64(ts[n-1])
		} else {
			b[nseg] = float64(n)
		}
	}
	// b_i for i in 2..nseg-1 sits at the (i-1)-th changing point j; the
	// last changing point only bounds the final segment, set above.
	for i, j := 2, 2; i <= nseg-1; j++ {
		if !crosses(j) {
			continue
		}
		if i%2 == 1 {
			b[i] = float64(j) - ix.k*float64(ts[j-1])
		} else {
			b[i] = float64(j)
		}
		i++
	}

	splits := make([]int64, m+1) // 1-based t_1..t_m
	splits[1] = ts[0]
	splits[m] = ts[n-1]
	for i := 2; i <= m-1; i++ {
		var t float64
		if i%2 == 1 {
			t = (b[i-1] - b[i]) / ix.k
		} else {
			t = (b[i] - b[i-1]) / ix.k
		}
		splits[i] = int64(math.Round(t))
	}
	// Guard against a degenerate fit producing non-monotonic splits; the
	// evaluator requires ordered segment boundaries.
	for i := 2; i <= m; i++ {
		if splits[i] < splits[i-1] {
			splits[i] = splits[i-1]
		}
	}
	ix.splits = splits[1:]
	ix.intercepts = b[1:]

	// Exactness guard: record the worst prediction error on the chunk. The
	// timestamps ascend, so the segment holding each is found by walking
	// the splits beside them: seg counts the splits <= t. A prediction
	// within maxErr+0.25 of its position cannot round to a larger error,
	// so only the others pay for the rounding.
	seg := 0
	slope, icpt := ix.line(-1)
	for i, t := range ts {
		for seg < len(ix.splits) && ix.splits[seg] <= t {
			seg++
			slope, icpt = ix.line(seg - 1)
		}
		pred := slope*float64(t) + icpt
		if d, lim := pred-float64(i+1), float64(ix.maxErr)+0.25; d <= lim && d >= -lim {
			continue
		}
		if e := absInt(int(math.Round(pred)) - (i + 1)); e > ix.maxErr {
			ix.maxErr = e
		}
	}
	return ix
}

// eval computes f(t) of Definition 3.6 with 1-based positions. Timestamps
// outside [t_1, t_m] are clamped to the nearest boundary segment.
func (ix *Index) eval(t int64) float64 {
	// Locate the segment: the largest index with splits[i] <= t.
	slope, icpt := ix.line(sort.Search(len(ix.splits), func(i int) bool { return ix.splits[i] > t }) - 1)
	return slope*float64(t) + icpt
}

// line returns f on segment i, the largest index with splits[i] <= t (-1
// when none is), as f(t) = slope*t + intercept: a level segment has slope
// 0.
func (ix *Index) line(i int) (slope, intercept float64) {
	m := len(ix.splits)
	if m == 0 {
		return 0, 1
	}
	if i < 0 {
		i = 0
	}
	if i > m-2 {
		i = m - 2
	}
	if i < 0 { // single-split degenerate index
		i = 0
	}
	if i >= len(ix.intercepts) {
		i = len(ix.intercepts) - 1
	}
	seg := i + 1 // 1-based segment number
	if seg%2 == 1 {
		return ix.k, ix.intercepts[i] // tilt
	}
	return 0, ix.intercepts[i] // level
}

// window returns a [lo, hi) 0-based position window guaranteed to contain
// the true position of t if t is present.
func (ix *Index) window(t int64) (int, int) {
	n := len(ix.ts)
	if n == 0 {
		return 0, 0
	}
	f := math.Round(ix.eval(t))
	var pred int
	switch {
	case f < 0:
		pred = 0
	case f > float64(n):
		pred = n
	default:
		pred = int(f) - 1 // to 0-based
	}
	lo := pred - ix.maxErr - 1
	hi := pred + ix.maxErr + 2
	if lo < 0 {
		lo = 0
	}
	if lo > n {
		lo = n
	}
	if hi < lo {
		hi = lo
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}

// lowerBound returns the smallest 0-based position with ts[pos] >= t,
// using the regression window when possible.
func (ix *Index) lowerBound(t int64) int {
	n := len(ix.ts)
	lo, hi := ix.window(t)
	// Expand the window when the fit failed to bracket t; this keeps
	// probes exact even for query timestamps between training points on
	// a poor fit.
	if lo > 0 && ix.ts[lo-1] >= t {
		lo, hi = 0, lo
	} else if hi < n && (hi == 0 || ix.ts[hi-1] < t) {
		lo, hi = hi, n
	}
	return lo + sort.Search(hi-lo, func(i int) bool { return ix.ts[lo+i] >= t })
}

// Exists implements Probe.
func (ix *Index) Exists(t int64) bool {
	pos := ix.lowerBound(t)
	return pos < len(ix.ts) && ix.ts[pos] == t
}

// FirstAfter implements Probe.
func (ix *Index) FirstAfter(t int64) (int, bool) {
	pos := ix.lowerBound(t)
	if pos < len(ix.ts) && ix.ts[pos] == t {
		pos++
	}
	if pos >= len(ix.ts) {
		return 0, false
	}
	return pos, true
}

// LastBefore implements Probe.
func (ix *Index) LastBefore(t int64) (int, bool) {
	pos := ix.lowerBound(t) - 1
	if pos < 0 {
		return 0, false
	}
	return pos, true
}

// Predict evaluates the learned step function f(t) of Definition 3.6,
// returning the predicted 1-based position of timestamp t. It is exposed
// for diagnostics; probes add the error window on top of it.
func (ix *Index) Predict(t int64) float64 { return ix.eval(t) }

// Len returns the number of indexed timestamps.
func (ix *Index) Len() int { return len(ix.ts) }

// Slope returns the learned slope K in positions per millisecond.
func (ix *Index) Slope() float64 { return ix.k }

// Splits returns the learned split timestamps t_1..t_m.
func (ix *Index) Splits() []int64 { return ix.splits }

// MaxErr returns the worst 1-based position prediction error observed on
// the training chunk; probes binary-search inside this window.
func (ix *Index) MaxErr() int { return ix.maxErr }

// Segments describes the fitted function for diagnostics (examples and the
// Figure 8 reproduction).
func (ix *Index) Segments() []Segment {
	segs := make([]Segment, 0, len(ix.intercepts))
	for i, b := range ix.intercepts {
		s := Segment{
			Start:     ix.splits[i],
			End:       ix.splits[i+1],
			Intercept: b,
			Tilt:      (i+1)%2 == 1,
		}
		if s.Tilt {
			s.Slope = ix.k
		}
		segs = append(segs, s)
	}
	return segs
}

// Segment is one tilt or level piece of the fitted step function.
type Segment struct {
	Start, End int64   // covered timestamp range
	Slope      float64 // K for tilt segments, 0 for level segments
	Intercept  float64 // b_i
	Tilt       bool
}

func (s Segment) String() string {
	if s.Tilt {
		return fmt.Sprintf("[%d,%d) tilt  f(t)=%.6g*t%+.6g", s.Start, s.End, s.Slope, s.Intercept)
	}
	return fmt.Sprintf("[%d,%d) level f(t)=%.6g", s.Start, s.End, s.Intercept)
}

func meanStd(xs []int64) (mu, sigma float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mu += float64(x)
	}
	mu /= float64(len(xs))
	for _, x := range xs {
		d := float64(x) - mu
		sigma += d * d
	}
	sigma = math.Sqrt(sigma / float64(len(xs)))
	return mu, sigma
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
