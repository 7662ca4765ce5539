package stepreg

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// refBuild is Build as first written — a sorted copy for the median, one
// binary search and one rounding per point in the exactness loop — kept as
// the reference the allocation-free Build must match bit for bit.
func refBuild(ts []int64) *Index {
	ix := &Index{ts: ts}
	n := len(ts)
	if n < 2 {
		ix.k = 1
		if n == 1 {
			ix.splits = []int64{ts[0], ts[0]}
			ix.intercepts = []float64{1}
		}
		return ix
	}

	deltas := make([]int64, n-1)
	for i := 1; i < n; i++ {
		deltas[i-1] = ts[i] - ts[i-1]
	}
	med := refMedian(deltas)
	if med <= 0 {
		med = 1
	}
	ix.k = 1 / float64(med)

	mu, sigma := meanStd(deltas)
	thr := mu + 3*sigma

	var changing []int
	for j := 2; j <= n-1; j++ {
		dPrev := float64(ts[j-1] - ts[j-2])
		dNext := float64(ts[j] - ts[j-1])
		if (dPrev <= thr && dNext > thr) || (dPrev > thr && dNext <= thr) {
			changing = append(changing, j)
		}
	}

	m := len(changing) + 2
	nseg := m - 1
	b := make([]float64, nseg+1)
	b[1] = 1 - ix.k*float64(ts[0])
	if nseg >= 2 {
		if nseg%2 == 1 {
			b[nseg] = float64(n) - ix.k*float64(ts[n-1])
		} else {
			b[nseg] = float64(n)
		}
	}
	for i := 2; i <= nseg-1; i++ {
		j := changing[i-2]
		if i%2 == 1 {
			b[i] = float64(j) - ix.k*float64(ts[j-1])
		} else {
			b[i] = float64(j)
		}
	}

	splits := make([]int64, m+1)
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
	for i := 2; i <= m; i++ {
		if splits[i] < splits[i-1] {
			splits[i] = splits[i-1]
		}
	}
	ix.splits = splits[1:]
	ix.intercepts = b[1:]

	for i, t := range ts {
		pred := refEval(ix, t)
		if e := absInt(int(math.Round(pred)) - (i + 1)); e > ix.maxErr {
			ix.maxErr = e
		}
	}
	return ix
}

// refEval is eval as first written: a binary search for the segment, then
// its line.
func refEval(ix *Index, t int64) float64 {
	m := len(ix.splits)
	if m == 0 {
		return 1
	}
	i := sort.Search(m, func(i int) bool { return ix.splits[i] > t }) - 1
	if i < 0 {
		i = 0
	}
	if i > m-2 {
		i = m - 2
	}
	if i < 0 {
		i = 0
	}
	if i >= len(ix.intercepts) {
		i = len(ix.intercepts) - 1
	}
	if (i+1)%2 == 1 {
		return ix.k*float64(t) + ix.intercepts[i]
	}
	return ix.intercepts[i]
}

func refMedian(xs []int64) int64 {
	cp := make([]int64, len(xs))
	copy(cp, xs)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	return cp[len(cp)/2]
}

// fuzzTimestamps draws n strictly increasing timestamps of one of three
// shapes: a regular cadence, the paper's step shape (cadence runs broken by
// transmission gaps), or a jittered cadence.
func fuzzTimestamps(seed int64, n int, shape uint8) []int64 {
	rng := rand.New(rand.NewSource(seed))
	step := 1 + rng.Int63n(10_000)
	ts := make([]int64, n)
	t := rng.Int63n(1 << 40)
	for i := range ts {
		ts[i] = t
		switch shape % 3 {
		case 0:
			t += step
		case 1:
			t += step
			if rng.Intn(50) == 0 {
				t += step * (2 + rng.Int63n(500))
			}
		default:
			t += max(1, step+rng.Int63n(step+1)-step/2)
		}
	}
	return ts
}

// FuzzStepregBuild holds Build to refBuild: the same slope, splits,
// segments and error window, and the same answer to every probe. The model
// Fit learns must also survive its encoding: decoded and bound to the same
// timestamps, it is Build's index field for field.
func FuzzStepregBuild(f *testing.F) {
	for shape := uint8(0); shape < 3; shape++ {
		for _, n := range []uint16{0, 1, 2, 3, 64, 1000} {
			f.Add(int64(shape)*7+int64(n), n, shape)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16, shape uint8) {
		ts := fuzzTimestamps(seed, int(n%2048), shape)
		got, want := Build(ts), refBuild(ts)
		if math.Float64bits(got.Slope()) != math.Float64bits(want.Slope()) {
			t.Fatalf("Slope = %v, want %v", got.Slope(), want.Slope())
		}
		if !slices.Equal(got.Splits(), want.Splits()) {
			t.Fatalf("Splits = %v, want %v", got.Splits(), want.Splits())
		}
		if !reflect.DeepEqual(got.Segments(), want.Segments()) {
			t.Fatalf("Segments = %v, want %v", got.Segments(), want.Segments())
		}
		if got.MaxErr() != want.MaxErr() {
			t.Fatalf("MaxErr = %d, want %d", got.MaxErr(), want.MaxErr())
		}
		model := Fit(ts)
		enc := model.AppendBinary([]byte{0xa5})
		decoded, rest, err := DecodeModel(enc[1:], int64(len(ts)))
		if err != nil || len(rest) != 0 {
			t.Fatalf("decoding the %d-byte model of %d points: %v, %d bytes left", len(enc)-1, len(ts), err, len(rest))
		}
		if !reflect.DeepEqual(decoded, model) {
			t.Fatalf("decoded model %+v, fitted %+v", decoded, model)
		}
		if bound := Bind(decoded, ts); !reflect.DeepEqual(bound, got) {
			t.Fatalf("Bind(decoded Fit(ts)) = %+v, Build(ts) = %+v", bound, got)
		}
		if _, _, err := DecodeModel(enc[1:len(enc)-1], int64(len(ts))); err == nil {
			t.Fatal("a truncated model decoded")
		}
		// A damaged model that still decodes for these timestamps binds to
		// a worse fit, never to wrong answers: the error window widens.
		damaged := slices.Clone(enc[1:])
		damaged[int(uint64(seed)%uint64(len(damaged)))] ^= byte(seed>>8) | 1
		other, _, err := DecodeModel(damaged, int64(len(ts)))
		probes := []int64{math.MinInt64 + 1, math.MaxInt64 - 1}
		for _, q := range ts {
			probes = append(probes, q-1, q, q+1)
		}
		for _, q := range probes {
			if p, rp := got.eval(q), refEval(want, q); p != rp {
				t.Fatalf("Predict(%d) = %v, want %v", q, p, rp)
			}
			if err == nil {
				ox := Bind(other, ts)
				gi, gok := ox.LastBefore(q)
				wi, wok := want.LastBefore(q)
				if ox.Exists(q) != want.Exists(q) || gi != wi || gok != wok {
					t.Fatalf("damaged model %+v: probes of %d differ", other, q)
				}
			}
			if got.Exists(q) != want.Exists(q) {
				t.Fatalf("Exists(%d) differs", q)
			}
			gi, gok := got.FirstAfter(q)
			wi, wok := want.FirstAfter(q)
			if gi != wi || gok != wok {
				t.Fatalf("FirstAfter(%d) = %d,%v, want %d,%v", q, gi, gok, wi, wok)
			}
			gi, gok = got.LastBefore(q)
			wi, wok = want.LastBefore(q)
			if gi != wi || gok != wok {
				t.Fatalf("LastBefore(%d) = %d,%v, want %d,%v", q, gi, gok, wi, wok)
			}
		}
	})
}

// TestBuildAllocations pins what a fit allocates: the Model, its changing
// points and one buffer of deltas. The index it binds to measure the error
// window lives on the stack when the model is small, as the paper's chunk
// is, so nothing else is allocated.
func TestBuildAllocations(t *testing.T) {
	ts := paperChunk()
	if n := testing.AllocsPerRun(100, func() { Fit(ts) }); n > 3 {
		t.Errorf("Fit of %d points: %v allocs/op, want <= 3", len(ts), n)
	}
}

// TestNthIsTheSortedOrderStatistic holds the median's selection to a sort:
// every rank of short, duplicate-heavy, sorted and reversed inputs.
func TestNthIsTheSortedOrderStatistic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 1; n <= 70; n++ {
		for shape := 0; shape < 4; shape++ {
			xs := make([]int64, n)
			for i := range xs {
				switch shape {
				case 0:
					xs[i] = rng.Int63n(4)
				case 1:
					xs[i] = rng.Int63()
				case 2:
					xs[i] = int64(i)
				default:
					xs[i] = int64(n - i)
				}
			}
			sorted := slices.Clone(xs)
			slices.Sort(sorted)
			for k := range xs {
				if got := nth(slices.Clone(xs), k); got != sorted[k] {
					t.Fatalf("shape %d, n=%d: nth(%d) = %d, want %d", shape, n, k, got, sorted[k])
				}
			}
		}
	}
}
