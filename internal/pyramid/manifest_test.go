package pyramid

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"m4lsm/internal/m4"
	"m4lsm/internal/series"
)

// checkRoundTrip requires Decode(Encode(p)) to hold p's series level for
// level (log, cover, cells), with the same extents, stale sets, watermark
// and point count, to pass CheckInvariants, and to re-encode to the same
// bytes.
func checkRoundTrip(t *testing.T, name string, p *Pyramid, wm uint64) {
	t.Helper()
	enc := p.Encode(wm)
	q, wm2, err := Decode(enc)
	if err != nil || wm2 != wm {
		t.Fatalf("%s: decoded watermark %d, %v; want %d", name, wm2, err, wm)
	}
	if len(q.series) != len(p.series) || q.Points() != p.Points() {
		t.Fatalf("%s: decoded %d series and %d points, encoded %d and %d", name, len(q.series), q.Points(), len(p.series), p.Points())
	}
	for id, sp := range p.series {
		sq := q.series[id]
		if sq == nil || sq.hasExtent != sp.hasExtent || (sp.hasExtent && (sq.minT != sp.minT || sq.maxT != sp.maxT)) ||
			!slices.Equal(sq.stale, sp.stale) || len(sq.levels) != len(sp.levels) {
			t.Fatalf("%s: series %s decoded as %+v, encoded %+v", name, id, sq, sp)
		}
		for li, lv := range sp.levels {
			lq := sq.levels[li]
			if lq.log != lv.log || !slices.Equal(lq.cover, lv.cover) || !slices.Equal(lq.cells, lv.cells) {
				t.Fatalf("%s: series %s level %d decoded as L%d cover %v with %d cells, encoded L%d cover %v with %d cells",
					name, id, li, lq.log, lq.cover, len(lq.cells), lv.log, lv.cover, len(lv.cells))
			}
		}
		if err := q.CheckInvariants(id); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if again := q.Encode(wm); !bytes.Equal(again, enc) {
		t.Fatalf("%s: the decoded pyramid re-encodes to other bytes", name)
	}
}

// TestManifestRoundTripRandom runs seeded rebuild histories — late points
// between cells, head growth that coarsens the base, shrinks at both ends,
// overwrites that tie values, negative and near ±2^62 timestamps — and
// checks the manifest round trip after every rebuild.
func TestManifestRoundTripRandom(t *testing.T) {
	origins := []int64{0, -7000, 1<<62 - 1<<22, -(1 << 62)}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := New()
		data := map[string]series.Series{}
		for step := 0; step < 16; step++ {
			id := fmt.Sprintf("s%d", rng.Intn(3))
			pts := data[id]
			var next series.Series
			var lo, hi int64 // the closed range the change stales
			kind := "new series"
			if len(pts) == 0 {
				o := origins[rng.Intn(len(origins))]
				next = randomSeries(rng, 1+rng.Intn(400), o, o+400+rng.Int63n(20000))
				lo, hi = next[0].T, next[len(next)-1].T
			} else {
				first, last := pts[0].T, pts[len(pts)-1].T
				switch rng.Intn(5) {
				case 0:
					kind = "late points"
					late := randomSeries(rng, 1+rng.Intn(int(min(100, last-first+1))), first, last+1)
					next, lo, hi = merged(pts, late), late[0].T, late[len(late)-1].T
				case 1:
					kind = "head growth"
					head := randomSeries(rng, 1+rng.Intn(300), last+1, last+400+int64(100)<<rng.Intn(12))
					next, lo, hi = merged(pts, head), head[0].T, head[len(head)-1].T
				case 2:
					kind = "tail shrink"
					cut := first + rng.Int63n(last-first+1)
					next, lo, hi = pts.Slice(series.TimeRange{Start: math.MinInt64, End: cut}), cut, last
				case 3:
					kind = "head shrink"
					cut := first + rng.Int63n(last-first+1)
					next, lo, hi = pts.Slice(series.TimeRange{Start: cut, End: math.MaxInt64}), first, cut-1
				default:
					kind = "overwrites"
					next = append(series.Series(nil), pts...)
					lo, hi = last, first
					for range 1 + rng.Intn(20) {
						k := rng.Intn(len(next))
						next[k].V = float64(rng.Intn(3))
						lo, hi = min(lo, next[k].T), max(hi, next[k].T)
					}
				}
			}
			p.MarkStale(id, lo, hi)
			data[id] = next
			first, last := int64(1), int64(0)
			if len(next) > 0 {
				first, last = next[0].T, next[len(next)-1].T
			}
			p.Rebuild(id, first, last, func(r series.TimeRange) (series.Series, error) { return next.Slice(r), nil })
			checkRoundTrip(t, fmt.Sprintf("seed %d step %d (%s of %s)", seed, step, kind, id), p, uint64(seed*100+int64(step)))
		}
	}
}

// A parent cover that claims a cell whose two children are not both
// covered would derive a cell from half its data: Decode refuses it.
func TestDecodeRejectsOrphanParentCover(t *testing.T) {
	p := New()
	rebuild(p, "s", randomSeries(rand.New(rand.NewSource(4)), 100, 0, 1000))
	checkRoundTrip(t, "as rebuilt", p, 1)
	child, parent := p.series["s"].levels[0], p.series["s"].levels[1]
	for name, idx := range map[string]int64{
		// The parent cell just past the known ones has at most one child
		// covered; one far away has none.
		"half covered": child.cover[len(child.cover)-1].hi >> 1,
		"uncovered":    1 << 20,
	} {
		saved := parent.cover
		parent.cover = parent.cover.union(rset{{idx, idx + 1}})
		if _, _, err := Decode(p.Encode(1)); !errors.Is(err, errCorrupt) {
			t.Errorf("%s parent cell %d: Decode returned %v, want errCorrupt", name, idx, err)
		}
		parent.cover = saved
	}
}

// Encode appends straight into one buffer sized from the last encode:
// once the column buffers exist, an encode allocates little beyond its
// output.
func TestEncodeAllocatesItsOutput(t *testing.T) {
	p := ingestShape()
	p.Encode(1)
	var out []byte
	allocated := allocatedBy(func() { out = p.Encode(2) })
	if limit := uint64(len(out)) * 5 / 4; allocated > limit {
		t.Fatalf("an encode of %d bytes allocated %d, over %d", len(out), allocated, limit)
	}
}

// sparseManifest is one series of 18 levels whose 64 base cells lie 2^17
// apart, so every coarser level derives one cell per base cell: 17 derived
// cells for each one stored.
func sparseManifest() []byte {
	p := New()
	sp := &seriesPyramid{minT: 0, maxT: 63 << 17, hasExtent: true}
	for li := uint(0); li < maxLevels; li++ {
		sp.levels = append(sp.levels, &level{log: li, cover: rset{{0, 64 << 17 >> li}}})
	}
	for k := int64(0); k < 64; k++ {
		pt := series.Point{T: k << 17, V: float64(k % 3)}
		sp.levels[0].cells = append(sp.levels[0].cells, cellAt{idx: k << 17, agg: m4.Aggregate{First: pt, Last: pt, Bottom: pt, Top: pt}})
	}
	p.series["root.sparse"] = sp
	return p.Encode(7)
}

// ingestShape is the pyramid of the ingest_ooo workload's set-up: 16
// series of 8,192 points on even ticks with random-walk values, one point
// per base cell.
func ingestShape() *Pyramid {
	rng := rand.New(rand.NewSource(1))
	p := New()
	for s := 0; s < 16; s++ {
		pts := make(series.Series, 8192)
		v := 0.0
		for i := range pts {
			v += rng.Float64()*2 - 1
			pts[i] = series.Point{T: 2 + 2*int64(i), V: v}
		}
		rebuild(p, fmt.Sprintf("root.ing.s%d", s), pts)
	}
	return p
}

// baseCells counts the stored cells: those of every series' base level.
func baseCells(p *Pyramid) int {
	n := 0
	for _, sp := range p.series {
		if len(sp.levels) > 0 {
			n += len(sp.levels[0].cells)
		}
	}
	return n
}

// BenchmarkManifestEncode encodes ingestShape, reporting manifest bytes per
// point and nanoseconds per stored cell.
func BenchmarkManifestEncode(b *testing.B) {
	p := ingestShape()
	cells := baseCells(p)
	var data []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data = p.Encode(uint64(i))
	}
	b.ReportMetric(float64(len(data))/float64(p.Points()), "B/pt")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cells), "ns/cell")
}

// BenchmarkManifestDecode decodes ingestShape's manifest, deriving every
// coarser level, reporting manifest bytes per point and nanoseconds per
// stored cell.
func BenchmarkManifestDecode(b *testing.B) {
	p := ingestShape()
	data := p.Encode(1)
	cells := baseCells(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(data); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(data))/float64(p.Points()), "B/pt")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cells), "ns/cell")
}
