package storage

import (
	"math"
	"math/rand"
	"testing"
)

func naiveCovered(dels []Delete, t int64, ver Version) bool {
	for _, d := range dels {
		if d.Version > ver && d.Covers(t) {
			return true
		}
	}
	return false
}

func TestDeleteIndexBasic(t *testing.T) {
	dels := []Delete{
		{Version: 3, Start: 10, End: 20},
		{Version: 5, Start: 15, End: 30},
	}
	ix := NewDeleteIndex(dels)
	cases := []struct {
		t    int64
		ver  Version
		want bool
	}{
		{9, 1, false},
		{10, 1, true},
		{10, 3, false}, // only v3 covers t=10; not later than v3
		{15, 3, true},  // v5 covers
		{15, 5, false},
		{30, 4, true},
		{31, 0, false},
	}
	for _, c := range cases {
		if got := ix.Covered(c.t, c.ver); got != c.want {
			t.Errorf("Covered(%d, v%d) = %v, want %v", c.t, c.ver, got, c.want)
		}
	}
}

func TestDeleteIndexEmpty(t *testing.T) {
	ix := NewDeleteIndex(nil)
	if ix.Covered(5, 0) {
		t.Error("empty index covered a point")
	}
}

func TestDeleteIndexMaxInt64End(t *testing.T) {
	ix := NewDeleteIndex([]Delete{{Version: 2, Start: 100, End: math.MaxInt64}})
	if !ix.Covered(math.MaxInt64, 1) || !ix.Covered(100, 1) || ix.Covered(99, 1) {
		t.Error("open-ended delete mishandled")
	}
}

func TestDeleteIndexAgainstNaiveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(20)
		dels := make([]Delete, 0, n)
		for i := 0; i < n; i++ {
			start := rng.Int63n(200)
			dels = append(dels, Delete{
				Version: Version(rng.Intn(10)),
				Start:   start,
				End:     start + rng.Int63n(60),
			})
		}
		ix := NewDeleteIndex(dels)
		for probe := 0; probe < 100; probe++ {
			tt := rng.Int63n(300) - 20
			ver := Version(rng.Intn(12))
			if got, want := ix.Covered(tt, ver), naiveCovered(dels, tt, ver); got != want {
				t.Fatalf("trial %d: Covered(%d, v%d) = %v, want %v (dels %v)", trial, tt, ver, got, want, dels)
			}
		}
	}
}

// TestDeleteIndexRangeProperty holds the range query and the sweep to
// Covered at every point: CoversAny(lo, hi, ver) is Covered(t, ver) for
// some t in [lo, hi], and a sweep over ascending timestamps answers
// Covered(t, ver) at each. The states include an empty index, deletes
// ending at MaxInt64 and ties between delete and chunk versions.
func TestDeleteIndexRangeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(8)
		dels := make([]Delete, 0, n)
		for i := 0; i < n; i++ {
			start := rng.Int63n(100)
			end := start + rng.Int63n(30)
			if rng.Intn(10) == 0 {
				end = math.MaxInt64
			}
			dels = append(dels, Delete{Version: Version(1 + rng.Intn(4)), Start: start, End: end})
		}
		ix := NewDeleteIndex(dels)
		for probe := 0; probe < 50; probe++ {
			lo := rng.Int63n(150) - 20
			hi := lo + rng.Int63n(40)
			ver := Version(rng.Intn(6))
			want := false
			for tt := lo; tt <= hi; tt++ {
				want = want || ix.Covered(tt, ver)
			}
			if got := ix.CoversAny(lo, hi, ver); got != want {
				t.Fatalf("trial %d: CoversAny(%d, %d, v%d) = %v, want %v (dels %v)", trial, lo, hi, ver, got, want, dels)
			}
			sw := ix.Sweep(lo, ver)
			for tt := lo; tt <= hi; tt += 1 + rng.Int63n(3) {
				if got, want := sw.Covered(tt), ix.Covered(tt, ver); got != want {
					t.Fatalf("trial %d: sweep from %d Covered(%d, v%d) = %v, want %v (dels %v)", trial, lo, tt, ver, got, want, dels)
				}
			}
		}
		// The far end of the time axis: only an open-ended delete reaches it.
		if got, want := ix.CoversAny(math.MaxInt64-1, math.MaxInt64, 0), ix.Covered(math.MaxInt64, 0); got != want {
			t.Fatalf("trial %d: CoversAny at MaxInt64 = %v, want %v (dels %v)", trial, got, want, dels)
		}
	}
}
