package m4

import (
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"m4lsm/internal/series"
)

func TestQueryValidate(t *testing.T) {
	if err := (Query{Tqs: 0, Tqe: 10, W: 4}).Validate(); err != nil {
		t.Error(err)
	}
	if err := (Query{Tqs: 0, Tqe: 10, W: 0}).Validate(); err == nil {
		t.Error("w=0 accepted")
	}
	if err := (Query{Tqs: 10, Tqe: 10, W: 1}).Validate(); err == nil {
		t.Error("empty range accepted")
	}
	if err := (Query{Tqs: 10, Tqe: 5, W: 1}).Validate(); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestSpansPartitionRange(t *testing.T) {
	// Spans must tile [Tqs, Tqe) exactly, even when W does not divide the
	// range length.
	for _, q := range []Query{
		{Tqs: 0, Tqe: 100, W: 4},
		{Tqs: 0, Tqe: 100, W: 7},
		{Tqs: -50, Tqe: 13, W: 9},
		{Tqs: 5, Tqe: 6, W: 3}, // more spans than timestamps
		{Tqs: 1000, Tqe: 1001, W: 1},
	} {
		prev := q.Tqs
		for i := 0; i < q.W; i++ {
			s := q.Span(i)
			if s.Start != prev {
				t.Errorf("%+v span %d starts at %d, want %d", q, i, s.Start, prev)
			}
			prev = s.End
		}
		if prev != q.Tqe {
			t.Errorf("%+v spans end at %d, want %d", q, prev, q.Tqe)
		}
	}
}

func TestSpanIndexConsistentWithSpan(t *testing.T) {
	f := func(rawTqs int32, rawLen uint16, rawW uint8, rawT uint32) bool {
		q := Query{
			Tqs: int64(rawTqs),
			Tqe: int64(rawTqs) + int64(rawLen) + 1,
			W:   int(rawW)%50 + 1,
		}
		t0 := q.Tqs + int64(rawT)%(q.Tqe-q.Tqs)
		i := q.SpanIndex(t0)
		if i < 0 || i >= q.W {
			return false
		}
		return q.Span(i).Contains(t0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSpanIndexOutOfRange(t *testing.T) {
	q := Query{Tqs: 10, Tqe: 20, W: 2}
	if q.SpanIndex(9) != -1 || q.SpanIndex(20) != -1 {
		t.Error("out-of-range timestamps must map to -1")
	}
	if q.SpanIndex(10) != 0 || q.SpanIndex(19) != 1 {
		t.Error("boundary timestamps map to wrong spans")
	}
}

func TestComputeSeriesFigure3(t *testing.T) {
	// One span holding a small series: the four representation points.
	s := series.Series{{T: 10, V: 3}, {T: 20, V: 8}, {T: 30, V: 1}, {T: 40, V: 5}}
	aggs, err := ComputeSeries(Query{Tqs: 0, Tqe: 100, W: 1}, s)
	if err != nil {
		t.Fatal(err)
	}
	a := aggs[0]
	if a.Empty {
		t.Fatal("span empty")
	}
	if a.First != s[0] || a.Last != s[3] {
		t.Errorf("first/last = %v/%v", a.First, a.Last)
	}
	if a.Bottom != s[2] || a.Top != s[1] {
		t.Errorf("bottom/top = %v/%v", a.Bottom, a.Top)
	}
}

func TestComputeSeriesMultiSpan(t *testing.T) {
	s := series.Series{
		{T: 0, V: 1}, {T: 1, V: 9}, {T: 2, V: 2}, // span 0: [0,3)
		{T: 3, V: 4}, {T: 5, V: 0}, // span 1: [3,6)
		// span 2 empty
	}
	aggs, err := ComputeSeries(Query{Tqs: 0, Tqe: 9, W: 3}, s)
	if err != nil {
		t.Fatal(err)
	}
	if aggs[0].First.T != 0 || aggs[0].Last.T != 2 || aggs[0].Top.V != 9 || aggs[0].Bottom.V != 1 {
		t.Errorf("span0 = %v", aggs[0])
	}
	if aggs[1].First.T != 3 || aggs[1].Last.T != 5 || aggs[1].Bottom.V != 0 || aggs[1].Top.V != 4 {
		t.Errorf("span1 = %v", aggs[1])
	}
	if !aggs[2].Empty {
		t.Errorf("span2 = %v, want empty", aggs[2])
	}
}

func TestComputeSeriesIgnoresOutOfRange(t *testing.T) {
	s := series.Series{{T: -5, V: 100}, {T: 1, V: 1}, {T: 50, V: 100}}
	aggs, err := ComputeSeries(Query{Tqs: 0, Tqe: 10, W: 1}, s)
	if err != nil {
		t.Fatal(err)
	}
	if aggs[0].Top.V != 1 {
		t.Errorf("out-of-range points leaked: %v", aggs[0])
	}
}

func TestComputeStreamRejectsUnsorted(t *testing.T) {
	s := series.Series{{T: 5, V: 1}, {T: 3, V: 2}}
	if _, err := ComputeSeries(Query{Tqs: 0, Tqe: 10, W: 1}, s); err == nil {
		t.Error("unsorted input accepted")
	}
	dup := series.Series{{T: 5, V: 1}, {T: 5, V: 2}}
	if _, err := ComputeSeries(Query{Tqs: 0, Tqe: 10, W: 1}, dup); err == nil {
		t.Error("duplicate timestamps accepted")
	}
}

func TestComputeStreamInvalidQuery(t *testing.T) {
	if _, err := ComputeSeries(Query{Tqs: 0, Tqe: 10, W: -1}, nil); err == nil {
		t.Error("invalid query accepted")
	}
}

func TestObserve(t *testing.T) {
	a := Aggregate{Empty: true}
	a.Observe(series.Point{T: 1, V: 5})
	if a.Empty || a.First.V != 5 || a.Bottom.V != 5 {
		t.Fatalf("after first observe: %v", a)
	}
	a.Observe(series.Point{T: 2, V: 3})
	a.Observe(series.Point{T: 3, V: 7})
	if a.First.T != 1 || a.Last.T != 3 || a.Bottom.V != 3 || a.Top.V != 7 {
		t.Fatalf("after observes: %v", a)
	}
}

func TestEquivalent(t *testing.T) {
	base := Aggregate{
		First:  series.Point{T: 1, V: 1},
		Last:   series.Point{T: 9, V: 2},
		Bottom: series.Point{T: 3, V: -4},
		Top:    series.Point{T: 4, V: 8},
	}
	same := base
	same.Bottom.T = 7 // different bottom time, same value: still equivalent
	if !Equivalent(base, same) {
		t.Error("value-equal bottoms not equivalent")
	}
	diff := base
	diff.Top.V = 9
	if Equivalent(base, diff) {
		t.Error("different top values equivalent")
	}
	diffFirst := base
	diffFirst.First.V = 99
	if Equivalent(base, diffFirst) {
		t.Error("different first values equivalent")
	}
	if !Equivalent(Aggregate{Empty: true}, Aggregate{Empty: true}) {
		t.Error("two empties not equivalent")
	}
	if Equivalent(Aggregate{Empty: true}, base) {
		t.Error("empty equivalent to non-empty")
	}
}

func TestPoints(t *testing.T) {
	aggs := []Aggregate{
		{First: series.Point{T: 1, V: 1}, Last: series.Point{T: 4, V: 4},
			Bottom: series.Point{T: 2, V: 0}, Top: series.Point{T: 3, V: 9}},
		{Empty: true},
		{First: series.Point{T: 10, V: 5}, Last: series.Point{T: 10, V: 5},
			Bottom: series.Point{T: 10, V: 5}, Top: series.Point{T: 10, V: 5}},
		// Top before Bottom, and Bottom is Last.
		{First: series.Point{T: 20, V: 2}, Last: series.Point{T: 23, V: -1},
			Bottom: series.Point{T: 23, V: -1}, Top: series.Point{T: 21, V: 7}},
	}
	got := Points(aggs)
	want := series.Series{
		{T: 1, V: 1}, {T: 2, V: 0}, {T: 3, V: 9}, {T: 4, V: 4}, {T: 10, V: 5},
		{T: 20, V: 2}, {T: 21, V: 7}, {T: 23, V: -1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Points = %v, want %v", got, want)
	}
	if err := got.Columns().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPointsPreserveRepresentation(t *testing.T) {
	// Key M4 property: recomputing M4 over the reduced point set yields
	// the same representation (the reduction is idempotent).
	rng := rand.New(rand.NewSource(11))
	s := make(series.Series, 0, 3000)
	tt := int64(0)
	for i := 0; i < 3000; i++ {
		tt += int64(1 + rng.Intn(10))
		s = append(s, series.Point{T: tt, V: rng.NormFloat64() * 10})
	}
	q := Query{Tqs: 0, Tqe: tt + 1, W: 37}
	aggs, err := ComputeSeries(q, s)
	if err != nil {
		t.Fatal(err)
	}
	reduced := Points(aggs)
	aggs2, err := ComputeSeries(q, reduced)
	if err != nil {
		t.Fatal(err)
	}
	for i := range aggs {
		if !Equivalent(aggs[i], aggs2[i]) {
			t.Fatalf("span %d: %v vs %v", i, aggs[i], aggs2[i])
		}
	}
}

func TestComputeSeriesAgainstPerSpanScan(t *testing.T) {
	// Cross-check the streaming computation against a per-span scan that
	// uses Span/Slice directly.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(200)
		s := make(series.Series, 0, n)
		tt := int64(rng.Intn(50))
		for i := 0; i < n; i++ {
			tt += int64(1 + rng.Intn(8))
			s = append(s, series.Point{T: tt, V: float64(rng.Intn(100))})
		}
		q := Query{Tqs: s[0].T - int64(rng.Intn(10)), Tqe: tt + 1 + int64(rng.Intn(10)), W: 1 + rng.Intn(20)}
		got, err := ComputeSeries(q, s)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < q.W; i++ {
			sub := s.Slice(q.Span(i))
			if len(sub) == 0 {
				if !got[i].Empty {
					t.Fatalf("trial %d span %d: want empty, got %v", trial, i, got[i])
				}
				continue
			}
			want := Aggregate{Empty: true}
			for _, p := range sub {
				want.Observe(p)
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Fatalf("trial %d span %d: got %v, want %v", trial, i, got[i], want)
			}
		}
	}
}

// TestSpanArithmeticAgainstBig checks SpanStart and SpanIndex against
// their definitions computed with math/big, over ranges up to the widest an
// int64 width allows and at offsets across the whole time domain:
// SpanStart(i) = Tqs + ceil(i·len/W), SpanIndex(t) = floor(W·(t−Tqs)/len),
// and every t lies in the span its index names.
func TestSpanArithmeticAgainstBig(t *testing.T) {
	bigStart := func(q Query, i int) int64 {
		n := new(big.Int).Mul(big.NewInt(int64(i)), new(big.Int).Sub(big.NewInt(q.Tqe), big.NewInt(q.Tqs)))
		w := big.NewInt(int64(q.W))
		quo, rem := new(big.Int).QuoRem(n, w, new(big.Int))
		if rem.Sign() != 0 {
			quo.Add(quo, big.NewInt(1))
		}
		return quo.Add(quo, big.NewInt(q.Tqs)).Int64()
	}
	bigIndex := func(q Query, tt int64) int {
		n := new(big.Int).Mul(big.NewInt(int64(q.W)), new(big.Int).Sub(big.NewInt(tt), big.NewInt(q.Tqs)))
		return int(n.Quo(n, new(big.Int).Sub(big.NewInt(q.Tqe), big.NewInt(q.Tqs))).Int64())
	}
	rng := rand.New(rand.NewSource(13))
	bases := []int64{0, 1_700_000_000_000, 1_700_000_000_000_000_000, -1_000_000_000_000, 4e18, -4e18, math.MinInt64}
	widths := []int64{1, 7, 1000, 1 << 40, 1.8e18, math.MaxInt64 / 3, math.MaxInt64}
	for trial := 0; trial < 3000; trial++ {
		tqs := bases[rng.Intn(len(bases))]
		if off := rng.Int63n(1000); tqs < 0 {
			tqs += off
		} else {
			tqs -= off
		}
		width := widths[rng.Intn(len(widths))] - rng.Int63n(2)
		if width < 1 {
			width = 1
		}
		if tqs > math.MaxInt64-width {
			tqs = math.MaxInt64 - width
		}
		q := Query{Tqs: tqs, Tqe: tqs + width, W: 1 + rng.Intn(1<<20)}
		if trial%5 == 0 {
			q.W = math.MaxInt32
		}
		if err := q.Validate(); err != nil {
			t.Fatalf("%+v: %v", q, err)
		}
		for _, i := range []int{0, 1, q.W / 2, q.W - 1, q.W, rng.Intn(q.W + 1)} {
			if got, want := q.SpanStart(i), bigStart(q, i); got != want {
				t.Fatalf("%+v: SpanStart(%d) = %d, want %d", q, i, got, want)
			}
		}
		for _, tt := range []int64{q.Tqs, q.Tqe - 1, q.Tqs + rng.Int63n(width), q.Tqs + width/2} {
			idx := q.SpanIndex(tt)
			if want := bigIndex(q, tt); idx != want {
				t.Fatalf("%+v: SpanIndex(%d) = %d, want %d", q, tt, idx, want)
			}
			if sp := q.Span(idx); tt < sp.Start || tt >= sp.End {
				t.Fatalf("%+v: t=%d has index %d, whose span is %v", q, tt, idx, sp)
			}
		}
		if q.SpanIndex(q.Tqe) != -1 || (q.Tqs > math.MinInt64 && q.SpanIndex(q.Tqs-1) != -1) {
			t.Fatalf("%+v: a time outside the range has a span", q)
		}
	}
	// A width that does not fit in an int64 is refused.
	for _, q := range []Query{
		{Tqs: math.MinInt64, Tqe: 0, W: 10},
		{Tqs: -1, Tqe: math.MaxInt64, W: 10},
		{Tqs: math.MinInt64, Tqe: math.MaxInt64, W: 1},
	} {
		if err := q.Validate(); err == nil {
			t.Errorf("%+v: validated a range wider than MaxInt64", q)
		}
	}
	if err := (Query{Tqs: math.MinInt64, Tqe: -1, W: 1}).Validate(); err != nil {
		t.Errorf("a range exactly MaxInt64 wide: %v", err)
	}
}

func TestAggregateString(t *testing.T) {
	if (Aggregate{Empty: true}).String() != "{empty}" {
		t.Error("empty string form")
	}
	a := Aggregate{First: series.Point{T: 1, V: 2}}
	if a.String() == "" {
		t.Error("empty description")
	}
}
