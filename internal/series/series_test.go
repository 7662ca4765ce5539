package series

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestValidate(t *testing.T) {
	tests := []struct {
		name string
		s    Series
		ok   bool
	}{
		{"empty", nil, true},
		{"single", Series{{1, 1}}, true},
		{"increasing", Series{{1, 1}, {2, 2}, {5, 0}}, true},
		{"duplicate", Series{{1, 1}, {1, 2}}, false},
		{"decreasing", Series{{2, 1}, {1, 2}}, false},
		{"nan", Series{{1, math.NaN()}}, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.s.Columns().Validate(); (err == nil) != tc.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

func TestIsSorted(t *testing.T) {
	if !(Series{{1, 0}, {2, 0}}).IsSorted() {
		t.Error("sorted series reported unsorted")
	}
	if (Series{{2, 0}, {1, 0}}).IsSorted() {
		t.Error("unsorted series reported sorted")
	}
	if (Series{{1, 0}, {1, 0}}).IsSorted() {
		t.Error("duplicate timestamps reported sorted")
	}
}

func TestSortDedupKeepsLastWrite(t *testing.T) {
	s := Series{{3, 30}, {1, 10}, {3, 31}, {2, 20}, {1, 11}}
	got := SortDedup(s)
	want := Series{{1, 11}, {2, 20}, {3, 31}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SortDedup = %v, want %v", got, want)
	}
	if err := got.Columns().Validate(); err != nil {
		t.Fatalf("result not valid: %v", err)
	}
}

func TestSortDedupSmall(t *testing.T) {
	if got := SortDedup(nil); len(got) != 0 {
		t.Fatalf("SortDedup(nil) = %v", got)
	}
	one := Series{{5, 1}}
	if got := SortDedup(one); !reflect.DeepEqual(got, one) {
		t.Fatalf("SortDedup(one) = %v", got)
	}
}

func TestSortDedupProperty(t *testing.T) {
	f := func(raw []int16) bool {
		s := make(Series, len(raw))
		for i, r := range raw {
			s[i] = Point{T: int64(r % 64), V: float64(i)}
		}
		got := SortDedup(slices.Clone(s))
		if err := got.Columns().Validate(); err != nil {
			return false
		}
		// Every timestamp in the input must appear exactly once with the
		// value of its last occurrence.
		last := map[int64]float64{}
		for _, p := range s {
			last[p.T] = p.V
		}
		if len(got) != len(last) {
			return false
		}
		for _, p := range got {
			if last[p.T] != p.V {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestColumnsRoundTrip(t *testing.T) {
	s := Series{{1, 1.5}, {4, -2}, {9, 0}}
	got := FromColumns(s.Times(), s.Values())
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("round trip = %v, want %v", got, s)
	}
}

func TestFromColumnsPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched column lengths")
		}
	}()
	FromColumns([]int64{1, 2}, []float64{1})
}

// TestColumnsViewsShareMemory: Columns is a header over two slices — the
// accessors, copies of the value and Slice all see the same arrays, and
// Slice agrees with Series.Slice on every range.
func TestColumnsViewsShareMemory(t *testing.T) {
	s := Series{{1, 1.5}, {4, -2}, {9, 0}, {12, 7}}
	c := s.Columns()
	if c.Len() != len(s) || !reflect.DeepEqual(c.Points(), s) {
		t.Fatalf("columns of %v = %v", s, c)
	}
	for start := int64(-1); start <= 14; start++ {
		for end := start - 1; end <= 14; end++ {
			r := TimeRange{start, end}
			got, want := c.Slice(r), s.Slice(r)
			if !reflect.DeepEqual(got.Points(), append(Series{}, want...)) {
				t.Fatalf("Slice(%v) = %v, want %v", r, got.Points(), want)
			}
			if got.Len() == 0 {
				continue
			}
			if i, _ := s.IndexOf(want[0].T); &got.Times()[0] != &c.Times()[i] || &got.Values()[0] != &c.Values()[i] {
				t.Fatalf("Slice(%v) is not a view of the original arrays", r)
			}
		}
	}
	if (Columns{}).Len() != 0 || (Columns{}).Slice(TimeRange{0, 9}).Len() != 0 {
		t.Error("zero Columns is not empty")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched column lengths")
		}
	}()
	NewColumns([]int64{1, 2}, []float64{1})
}

func TestTimeRange(t *testing.T) {
	r := TimeRange{10, 20}
	if !r.Contains(10) || r.Contains(20) || !r.Contains(19) || r.Contains(9) {
		t.Error("Contains is not half-open [10,20)")
	}
	if r.Empty() || !(TimeRange{5, 5}).Empty() || !(TimeRange{6, 5}).Empty() {
		t.Error("Empty misclassifies ranges")
	}
}

func TestSlice(t *testing.T) {
	s := Series{{10, 0}, {20, 1}, {30, 2}, {40, 3}}
	tests := []struct {
		r    TimeRange
		want Series
	}{
		{TimeRange{10, 41}, s},
		{TimeRange{10, 40}, s[:3]},
		{TimeRange{11, 40}, s[1:3]},
		{TimeRange{0, 5}, nil},
		{TimeRange{45, 50}, nil},
		{TimeRange{20, 20}, nil},
		{TimeRange{20, 21}, s[1:2]},
	}
	for _, tc := range tests {
		got := s.Slice(tc.r)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Slice(%v) = %v, want %v", tc.r, got, tc.want)
		}
	}
}

func TestSliceIsView(t *testing.T) {
	s := Series{{10, 0}, {20, 1}}
	v := s.Slice(TimeRange{10, 15})
	if len(v) != 1 {
		t.Fatalf("len = %d", len(v))
	}
	v[0].V = 99
	if s[0].V != 99 {
		t.Error("Slice copied data; want a view")
	}
}

func TestIndexOf(t *testing.T) {
	s := Series{{10, 0}, {20, 1}, {30, 2}}
	if i, ok := s.IndexOf(20); !ok || i != 1 {
		t.Errorf("IndexOf(20) = %d,%v", i, ok)
	}
	if i, ok := s.IndexOf(25); ok || i != 2 {
		t.Errorf("IndexOf(25) = %d,%v", i, ok)
	}
	if i, ok := s.IndexOf(5); ok || i != 0 {
		t.Errorf("IndexOf(5) = %d,%v", i, ok)
	}
	if i, ok := s.IndexOf(35); ok || i != 3 {
		t.Errorf("IndexOf(35) = %d,%v", i, ok)
	}
}

func TestBounds(t *testing.T) {
	if _, ok := (Series{}).Bounds(); ok {
		t.Error("empty series reported bounds")
	}
	r, ok := (Series{{10, 0}, {30, 1}}).Bounds()
	if !ok || r != (TimeRange{10, 31}) {
		t.Errorf("Bounds = %v,%v", r, ok)
	}
	if !r.Contains(30) {
		t.Error("Bounds must contain last timestamp")
	}
}

func TestFirstLast(t *testing.T) {
	s := Series{{10, 1}, {20, 2}}
	if s.First() != (Point{10, 1}) || s.Last() != (Point{20, 2}) {
		t.Errorf("First/Last = %v/%v", s.First(), s.Last())
	}
}

func TestSliceAgainstLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(50)
		s := make(Series, 0, n)
		t0 := int64(0)
		for i := 0; i < n; i++ {
			t0 += int64(1 + rng.Intn(5))
			s = append(s, Point{T: t0, V: rng.Float64()})
		}
		r := TimeRange{Start: int64(rng.Intn(60)), End: int64(rng.Intn(260))}
		got := s.Slice(r)
		var want Series
		for _, p := range s {
			if r.Contains(p.T) {
				want = append(want, p)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: Slice(%v) len=%d, want %d", trial, r, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: Slice(%v)[%d] = %v, want %v", trial, r, i, got[i], want[i])
			}
		}
	}
}

func TestPointString(t *testing.T) {
	if got := (Point{5, 1.5}).String(); got != "(5, 1.5)" {
		t.Errorf("String = %q", got)
	}
}

func TestTimesValuesAreCopies(t *testing.T) {
	s := Series{{1, 2}}
	ts, vs := s.Times(), s.Values()
	ts[0], vs[0] = 9, 9
	if s[0].T != 1 || s[0].V != 2 {
		t.Error("Times/Values must not alias the series")
	}
}

func TestSliceSortedInputProperty(t *testing.T) {
	f := func(ts []uint8, lo, hi uint8) bool {
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
		var s Series
		for i, v := range ts {
			if i > 0 && v == ts[i-1] {
				continue
			}
			s = append(s, Point{T: int64(v), V: float64(i)})
		}
		r := TimeRange{Start: int64(lo), End: int64(hi)}
		got := s.Slice(r)
		for _, p := range got {
			if !r.Contains(p.T) {
				return false
			}
		}
		// Completeness: every in-range point of s appears.
		cnt := 0
		for _, p := range s {
			if r.Contains(p.T) {
				cnt++
			}
		}
		return cnt == len(got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// IsSorted reports whether timestamps strictly increase.
func (s Series) IsSorted() bool {
	for i := 1; i < len(s); i++ {
		if s[i].T <= s[i-1].T {
			return false
		}
	}
	return true
}

// IndexOf returns the position of timestamp t in the sorted series and
// whether it is present.
func (s Series) IndexOf(t int64) (int, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i].T >= t })
	if i < len(s) && s[i].T == t {
		return i, true
	}
	return i, false
}

// First returns the earliest point. It panics on an empty series.
func (s Series) First() Point { return s[0] }

// Last returns the latest point. It panics on an empty series.
func (s Series) Last() Point { return s[len(s)-1] }

// Bounds returns the closed time interval covered by the series and false
// if the series is empty.
func (s Series) Bounds() (TimeRange, bool) {
	if len(s) == 0 {
		return TimeRange{}, false
	}
	// End is exclusive, so one past the last timestamp.
	return TimeRange{Start: s[0].T, End: s[len(s)-1].T + 1}, true
}
