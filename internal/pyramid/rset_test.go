package pyramid

import (
	"math/rand"
	"sync"
	"testing"

	"m4lsm/internal/m4"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
)

// span is the bitmap oracle of [lo, hi) over the domain [0, 64).
func span(lo, hi int64) uint64 {
	if hi <= lo {
		return 0
	}
	return (^uint64(0) >> (64 - hi)) &^ (uint64(1)<<lo - 1)
}

// bitmap is the oracle's view of a set inside [0, 64). It fails on a set
// that is not sorted, disjoint and coalesced, or that leaves the domain.
func bitmap(t *testing.T, s rset) uint64 {
	t.Helper()
	var b uint64
	for i, r := range s {
		if r.lo >= r.hi || r.lo < 0 || r.hi > 64 || (i > 0 && r.lo <= s[i-1].hi) {
			t.Fatalf("set %v is not sorted, disjoint and coalesced inside [0, 64)", s)
		}
		b |= span(r.lo, r.hi)
	}
	return b
}

// FuzzRsetOps drives two range sets through random add, push, subtract,
// intersect and union sequences and holds every result, and contains and
// size, to a bitmap over [0, 64).
func FuzzRsetOps(f *testing.F) {
	f.Add([]byte{0, 3, 9, 1, 5, 20, 2, 0, 0, 4, 0, 0})
	f.Add([]byte{5, 0, 8, 5, 8, 16, 5, 30, 64, 3, 4, 40, 0, 10, 12, 6, 11, 11})
	f.Add([]byte{0, 0, 64, 1, 31, 33, 2, 0, 0, 0, 40, 41, 3, 1, 63, 4, 9, 9})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var a, b rset
		var oa, ob uint64
		for ; len(ops) >= 3; ops = ops[3:] {
			lo, hi := int64(ops[1]%65), int64(ops[2]%65)
			switch ops[0] % 7 {
			case 0:
				a.add(lo, hi)
				oa |= span(lo, hi)
			case 1:
				b.add(lo, hi)
				ob |= span(lo, hi)
			case 2:
				a, oa = a.subtract(b), oa&^ob
			case 3:
				a, oa = a.intersect(lo, hi), oa&span(lo, hi)
			case 4:
				a, oa = a.union(b), oa|ob
			case 5:
				// push's contract: nothing in the set starts after lo.
				if n := len(b); n == 0 || b[n-1].lo <= lo {
					b = b.push(lo, hi)
					ob |= span(lo, hi)
				}
			case 6:
				want := oa&span(lo, hi) == span(lo, hi)
				if got := a.contains(lo, hi); got != want {
					t.Fatalf("%v contains [%d, %d) = %v, want %v", a, lo, hi, got, want)
				}
			}
			if bitmap(t, a) != oa || bitmap(t, b) != ob {
				t.Fatalf("op %d [%d, %d): sets %v and %v, oracles %064b and %064b", ops[0]%7, lo, hi, a, b, oa, ob)
			}
			var n int64
			for o := oa; o != 0; o &= o - 1 {
				n++
			}
			if a.size() != n {
				t.Fatalf("%v has size %d, oracle %d", a, a.size(), n)
			}
		}
	})
}

// TestEncodeConcurrentWithReaders runs views, plans and rebuilds beside
// manifest encodes. Encode holds only the read lock, so under -race this
// proves it shares the pyramid with readers safely; Dirty then tracks the
// last encode and the rebuilds after it.
func TestEncodeConcurrentWithReaders(t *testing.T) {
	pts := randomSeries(rand.New(rand.NewSource(4)), 2000, 0, 1<<14)
	p := New()
	rebuild(p, "s", pts)
	q := m4.Query{Tqs: 0, Tqe: 1 << 14, W: 64}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			spans, aggs := make([]storage.PyramidSpan, q.W), make([]m4.Aggregate, q.W)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if v := p.View("s", q.Range()); v != nil {
					v.PlanSpans(q, spans, aggs)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			p.MarkStale("s", int64(i*100), int64(i*100+50))
			p.Rebuild("s", pts[0].T, pts[len(pts)-1].T, func(r series.TimeRange) (series.Series, error) {
				return pts.Slice(r), nil
			})
		}
	}()
	for i := 0; i < 50; i++ {
		if _, _, err := Decode(p.Encode(uint64(i))); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
	if p.Encode(0); p.Dirty() {
		t.Fatal("Encode left the pyramid dirty")
	}
	p.MarkStale("s", 0, 10)
	p.Rebuild("s", pts[0].T, pts[len(pts)-1].T, func(r series.TimeRange) (series.Series, error) { return pts.Slice(r), nil })
	if !p.Dirty() {
		t.Fatal("a rebuild after the last encode left the pyramid clean")
	}
	if err := p.CheckInvariants("s"); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkRebuildAppendRanges rebuilds one series after ~1,000 batch-sized
// writes staled as many disjoint ranges: the ingest shape, where every flush
// round leaves one short range per post. Rebuild's cost must follow the
// ranges, not their product.
func BenchmarkRebuildAppendRanges(b *testing.B) {
	const ranges, gap, width = 1000, 256, 64
	var pts series.Series
	for t := int64(0); t < ranges*gap; t += 2 {
		pts = append(pts, series.Point{T: t, V: float64(t % 97)})
	}
	read := func(r series.TimeRange) (series.Series, error) { return pts.Slice(r), nil }
	p := New()
	rebuild(p, "s", pts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for r := int64(0); r < ranges; r++ {
			p.MarkStale("s", r*gap, r*gap+width-1)
		}
		b.StartTimer()
		p.Rebuild("s", pts[0].T, pts[len(pts)-1].T, read)
	}
}
