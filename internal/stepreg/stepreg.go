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
	"math/bits"
	"slices"
	"sort"

	"m4lsm/internal/encoding"
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
// The zero value is not usable; call Bind (or Build).
type Index struct {
	ts []int64 // the indexed timestamps, strictly increasing

	// Learned parameters (§3.5.1–3.5.3). Positions in the model are
	// 1-based, matching the paper; probes convert to 0-based.
	k          float64   // slope K = 1/median(Δt), in positions per ms
	splits     []int64   // split timestamps S = {t_1..t_m}
	intercepts []float64 // b_1..b_{m-1}, one per segment

	maxErr int // max |f(t_i) - i| observed over the chunk at fit time
}

// Model is what Fit learns from a chunk's timestamps: the median Δt (the
// slope is K = 1/Median), the changing points that bound its tilt and level
// segments, and the worst prediction error over the chunk. It is a few
// bytes per chunk, kept with the chunk's metadata; Bind turns it back into
// an Index over the same timestamps in O(segments).
type Model struct {
	Median   int64 // median Δt, at least 1 (0 for a chunk of fewer than two points)
	Changing []int // 1-based changing-point positions j, ascending, each in [2, n-1]
	MaxErr   int   // max |f(t_i) - i| over the chunk
}

// Build learns a step-regression index over ts, which must be strictly
// increasing (chunk writers guarantee this). It is Bind(Fit(ts), ts).
func Build(ts []int64) *Index { return Bind(Fit(ts), ts) }

// Fit learns the step-regression model of ts, which must be strictly
// increasing: K from the median Δt (§3.5.2), the changing points from the
// 3-sigma rule on Δt (§3.5.3), and the error window that keeps probes
// exact. It allocates the Model, its changing points and one buffer of
// deltas.
func Fit(ts []int64) *Model {
	n := len(ts)
	if n < 2 {
		return &Model{}
	}
	deltas := make([]int64, n-1)
	for i := 1; i < n; i++ {
		deltas[i-1] = ts[i] - ts[i-1]
	}
	// The 3-sigma threshold and the changing points are taken before the
	// selection reorders the deltas: the threshold's float sums must run in
	// time order for the model to stay bit-identical. A changing point is a
	// 1-based position j (2..n-1) where Δt crosses the threshold in either
	// direction (§3.5.3), between deltas[j-2] and deltas[j-1]. They collect
	// in a stack buffer, which holds the few a step-shaped chunk has.
	mu, sigma := meanStd(deltas)
	thr := mu + 3*sigma
	var changing [16]int
	cps := changing[:0]
	above := float64(deltas[0]) > thr
	for i := 1; i < n-1; i++ {
		if next := float64(deltas[i]) > thr; next != above {
			cps = append(cps, i+1)
			above = next
		}
	}
	m := &Model{Median: max(nth(deltas, len(deltas)/2), 1)}
	if len(cps) > 0 {
		m.Changing = slices.Clone(cps)
	}

	// Exactness guard: record the worst prediction error on the chunk,
	// with the index bound in stack buffers when the model is small. The
	// timestamps ascend, so the segment holding each is found by walking
	// the splits beside them: seg counts the splits <= t. A prediction
	// within maxErr+0.25 of its position cannot round to a larger error,
	// so only the others pay for the rounding.
	var splitBuf [16]int64
	var icptBuf [16]float64
	ix := Index{ts: ts}
	ix.k, ix.splits, ix.intercepts = bind(m, ts, splitBuf[:0], icptBuf[:0])
	seg := 0
	slope, icpt := ix.line(-1)
	lim := 0.25
	for i, t := range ts {
		for seg < len(ix.splits) && ix.splits[seg] <= t {
			seg++
			slope, icpt = ix.line(seg - 1)
		}
		pred := slope*float64(t) + icpt
		if d := pred - float64(i+1); d <= lim && d >= -lim {
			continue
		}
		if e := absInt(int(math.Round(pred)) - (i + 1)); e > m.MaxErr {
			m.MaxErr, lim = e, float64(e)+0.25
		}
	}
	return m
}

// Bind rebuilds the index that m describes over ts, the timestamps m was
// fitted on: K, the intercepts and the split timestamps are re-derived from
// the changing points' timestamps in O(segments), bit-identical to the
// index Fit measured. m is Fit(ts) or a model DecodeModel accepted for
// len(ts) points.
func Bind(m *Model, ts []int64) *Index {
	ix := &Index{ts: ts, maxErr: m.MaxErr}
	ix.k, ix.splits, ix.intercepts = bind(m, ts, nil, nil)
	return ix
}

// AppendBinary appends m's encoding to dst: uvarint Median, uvarint MaxErr,
// uvarint len(Changing), then each changing point as a uvarint gap from the
// one before it (from 0 for the first).
func (m *Model) AppendBinary(dst []byte) []byte {
	dst = encoding.AppendUvarint(dst, uint64(m.Median))
	dst = encoding.AppendUvarint(dst, uint64(m.MaxErr))
	dst = encoding.AppendUvarint(dst, uint64(len(m.Changing)))
	prev := 0
	for _, j := range m.Changing {
		dst = encoding.AppendUvarint(dst, uint64(j-prev))
		prev = j
	}
	return dst
}

// DecodeModel inverts AppendBinary for the model of a chunk of n points and
// returns the remaining buffer. A truncated model, or one that cannot
// describe such a chunk, is encoding.ErrCorrupt.
func DecodeModel(b []byte, n int64) (*Model, []byte, error) {
	var f [3]uint64
	for i := range f {
		u, rest, err := encoding.Uvarint(b)
		if err != nil {
			return nil, nil, err
		}
		f[i], b = u, rest
	}
	med, maxErr, count := f[0], f[1], f[2]
	// Every gap costs a byte, so a count the buffer cannot hold is refused
	// before anything is allocated for it.
	if n < 0 || med > math.MaxInt64 || maxErr > math.MaxInt64 || count > uint64(len(b)) || count > uint64(max(n-2, 0)) {
		return nil, nil, fmt.Errorf("%w: step model: median %d, error %d, %d changing points for %d points", encoding.ErrCorrupt, med, maxErr, count, n)
	}
	m := &Model{Median: int64(med), MaxErr: int(maxErr)}
	if count > 0 {
		m.Changing = make([]int, count)
	}
	j := uint64(0)
	for i := range m.Changing {
		gap, rest, err := encoding.Uvarint(b)
		if err != nil {
			return nil, nil, err
		}
		b, j = rest, j+gap
		m.Changing[i] = int(j)
	}
	if !m.fits(int(n)) {
		return nil, nil, fmt.Errorf("%w: step model %+v does not fit %d points", encoding.ErrCorrupt, *m, n)
	}
	return m, b, nil
}

// fits reports whether a decoded m can describe a chunk of n strictly
// increasing timestamps: a median for any chunk of two or more points, and
// changing points ascending within [2, n-1].
func (m *Model) fits(n int) bool {
	if n >= 2 && m.Median < 1 {
		return false
	}
	prev := 1
	for _, j := range m.Changing {
		if j <= prev || j > n-1 {
			return false
		}
		prev = j
	}
	return true
}

// bind derives an index's parameters from m and the timestamps it was
// fitted on, building the splits and intercepts in the given buffers'
// memory when it suffices. Positions are 1-based, as in the paper: b_i for
// i in 2..nseg-1 sits at the (i-1)-th changing point j; the last changing
// point only bounds the final segment.
func bind(m *Model, ts []int64, splits []int64, b []float64) (k float64, _ []int64, _ []float64) {
	n := len(ts)
	if n < 2 {
		// A 0/1-point chunk needs no model; probes fall through to the
		// (trivial) search window.
		if n == 1 {
			return 1, append(splits, ts[0], ts[0]), append(b, 1)
		}
		return 1, nil, nil
	}
	k = 1 / float64(m.Median)

	mm := len(m.Changing) + 2 // |S|
	nseg := mm - 1
	b = slices.Grow(b[:0], nseg+1)[:nseg+1] // 1-based b_1..b_{m-1}
	b[1] = 1 - k*float64(ts[0])
	if nseg >= 2 {
		if nseg%2 == 1 {
			b[nseg] = float64(n) - k*float64(ts[n-1])
		} else {
			b[nseg] = float64(n)
		}
	}
	for i := 2; i <= nseg-1; i++ {
		j := m.Changing[i-2]
		if i%2 == 1 {
			b[i] = float64(j) - k*float64(ts[j-1])
		} else {
			b[i] = float64(j)
		}
	}

	splits = slices.Grow(splits[:0], mm+1)[:mm+1] // 1-based t_1..t_m
	splits[1] = ts[0]
	splits[mm] = ts[n-1]
	for i := 2; i <= mm-1; i++ {
		var t float64
		if i%2 == 1 {
			t = (b[i-1] - b[i]) / k
		} else {
			t = (b[i] - b[i-1]) / k
		}
		splits[i] = int64(math.Round(t))
	}
	// Guard against a degenerate fit producing non-monotonic splits; the
	// evaluator requires ordered segment boundaries.
	for i := 2; i <= mm; i++ {
		if splits[i] < splits[i-1] {
			splits[i] = splits[i-1]
		}
	}
	return k, splits[1:], b[1:]
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

// nth returns the k-th smallest of xs (0-based), the value sorting would
// leave at xs[k], in expected O(n): a quickselect that reorders xs, with
// median-of-three pivots and Hoare partitions so runs of equal deltas split
// evenly. A selection that keeps partitioning badly finishes with a sort,
// which bounds the worst case at O(n log n).
func nth(xs []int64, k int) int64 {
	lo, hi := 0, len(xs)-1
	for budget := 2 * bits.Len(uint(len(xs))); lo < hi; budget-- {
		if budget == 0 {
			slices.Sort(xs[lo : hi+1])
			break
		}
		a, b, c := xs[lo], xs[lo+(hi-lo)/2], xs[hi]
		if a > b {
			a, b = b, a
		}
		pivot := min(max(a, c), b)
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for xs[j] > pivot {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		// xs[lo..j] <= pivot <= xs[i..hi], and anything between equals it.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return xs[k]
		}
	}
	return xs[k]
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
