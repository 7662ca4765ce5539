package pyramid

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"unsafe"

	"m4lsm/internal/encoding"
	"m4lsm/internal/m4"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
)

// randomSeries returns n points at distinct random times in [lo, hi), in
// time order, with values drawn from a small set so extremes tie often.
func randomSeries(rng *rand.Rand, n int, lo, hi int64) series.Series {
	seen := map[int64]bool{}
	var pts series.Series
	for len(pts) < n {
		t := lo + rng.Int63n(hi-lo)
		if !seen[t] {
			seen[t] = true
			pts = append(pts, series.Point{T: t, V: float64(rng.Intn(9))})
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].T < pts[j].T })
	return pts
}

// rebuild marks the whole extent of pts stale and rebuilds id from pts, the
// way an owner would after a flush.
func rebuild(p *Pyramid, id string, pts series.Series) {
	first, last := pts[0].T, pts[len(pts)-1].T
	p.MarkStale(id, first, last)
	p.Rebuild(id, first, last, func(r series.TimeRange) (series.Series, error) {
		return pts.Slice(r), nil
	})
}

// scan is the reference: the aggregate of pts over [lo, hi) by Observe.
func scan(pts series.Series, lo, hi int64) m4.Aggregate {
	agg := m4.Aggregate{Empty: true}
	for _, p := range pts.Slice(series.TimeRange{Start: lo, End: hi}) {
		agg.Observe(p)
	}
	return agg
}

// checkPlans plans q over v and checks every planned interior against the
// scan, returning how many spans were planned.
func checkPlans(t *testing.T, v storage.PyramidSource, q m4.Query, pts series.Series) int {
	t.Helper()
	if v == nil {
		return 0
	}
	spans, aggs := make([]storage.PyramidSpan, q.W), make([]m4.Aggregate, q.W)
	n := v.PlanSpans(q, spans, aggs)
	planned := 0
	for i, s := range spans {
		if s.Cells == 0 {
			continue
		}
		planned++
		span := q.Span(i)
		if s.Lo < span.Start || s.Hi > span.End || s.Lo >= s.Hi {
			t.Fatalf("%+v span %d: interior [%d,%d) outside the span [%d,%d)", q, i, s.Lo, s.Hi, span.Start, span.End)
		}
		// Cells fold with Merge, which must equal streaming the points,
		// earliest point winning value ties — so exact equality.
		if want := scan(pts, s.Lo, s.Hi); aggs[i] != want {
			t.Fatalf("%+v span %d [%d,%d): cells give %v, the scan %v", q, i, s.Lo, s.Hi, aggs[i], want)
		}
	}
	if planned != n {
		t.Fatalf("PlanSpans reported %d planned spans, filled %d", n, planned)
	}
	return n
}

func TestRebuildAndPlanMatchScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := randomSeries(rng, 3000, -4000, 20000)
	p := New()
	rebuild(p, "s", pts)
	if err := p.CheckInvariants("s"); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Series != 1 || st.Cells == 0 || st.StaleRanges != 0 || st.Rebuilds != 1 {
		t.Fatalf("stats after one rebuild: %+v", st)
	}
	queries := []m4.Query{{Tqs: -4000, Tqe: 20000, W: 8}, {Tqs: 0, Tqe: 16384, W: 16}, {Tqs: 1234, Tqe: 5678, W: 5}}
	total := 0
	for _, q := range queries {
		total += checkPlans(t, p.View("s", q.Range()), q, pts)
	}
	if total == 0 {
		t.Fatal("no span planned from a freshly rebuilt pyramid")
	}

	// A stale range refuses every cell it touches, until a rebuild re-reads
	// it. Here the "owner" deletes [4096, 8191] and overwrites one point.
	p.MarkStale("s", 4096, 8191)
	q := m4.Query{Tqs: 4096, Tqe: 8192, W: 1}
	if n := checkPlans(t, p.View("s", q.Range()), q, pts); n != 0 {
		t.Fatalf("planned %d spans over a stale range", n)
	}
	if ids := p.Stale(); len(ids) != 1 || ids[0] != "s" {
		t.Fatalf("Stale = %v, want [s]", ids)
	}
	var kept series.Series
	for _, pt := range pts {
		if pt.T < 4096 || pt.T > 8191 {
			kept = append(kept, pt)
		}
	}
	kept[10].V = 100
	p.MarkStale("s", kept[10].T, kept[10].T)
	p.Rebuild("s", kept[0].T, kept[len(kept)-1].T, func(r series.TimeRange) (series.Series, error) {
		return kept.Slice(r), nil
	})
	if err := p.CheckInvariants("s"); err != nil {
		t.Fatal(err)
	}
	total = 0
	for _, q := range append(queries, q) {
		total += checkPlans(t, p.View("s", q.Range()), q, kept)
	}
	if total == 0 {
		t.Fatal("no span planned after the rebuild")
	}

	// Incremental rebuilds that move cells inside a level's slice: late
	// points land between existing cells, the head grows, both ends of the
	// extent shrink, and an extent past maxBaseCells coarsens the base.
	pts = kept
	change := func(name string, next series.Series, stale ...int64) {
		t.Helper()
		for i := 0; i < len(stale); i += 2 {
			p.MarkStale("s", stale[i], stale[i+1])
		}
		pts = next
		p.Rebuild("s", pts[0].T, pts[len(pts)-1].T, func(r series.TimeRange) (series.Series, error) {
			return pts.Slice(r), nil
		})
		if err := p.CheckInvariants("s"); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkBase(t, name, p, "s", pts)
		planned := 0
		for _, q := range planQueries(rng, pts) {
			planned += checkPlans(t, p.View("s", q.Range()), q, pts)
		}
		if planned == 0 {
			t.Fatalf("%s: no span planned", name)
		}
	}
	late := randomSeries(rng, 400, 4096, 8192) // into the deleted gap
	change("late points", merged(pts, late), late[0].T, late[len(late)-1].T)
	late = randomSeries(rng, 50, 500, 700)
	change("late points between cells", merged(pts, late), late[0].T, late[len(late)-1].T)
	head := randomSeries(rng, 300, 20000, 26000)
	change("head growth", merged(pts, head), head[0].T, head[len(head)-1].T)
	change("tail shrink", pts.Slice(series.TimeRange{Start: math.MinInt64, End: 15000}), 15000, 26000)
	change("head shrink", pts.Slice(series.TimeRange{Start: -1000, End: math.MaxInt64}), -4000, -1001)
	lmin := p.series["s"].levels[0].log
	far := randomSeries(rng, 200, 30000, 400000)
	change("base coarsening", merged(pts, far), far[0].T, far[len(far)-1].T)
	if got := p.series["s"].levels[0].log; got <= lmin {
		t.Fatalf("base level log %d after growing the extent past maxBaseCells, was %d", got, lmin)
	}
}

// merged returns a plus the points of b at times a has no point at, in
// time order.
func merged(a, b series.Series) series.Series {
	out := append(series.Series(nil), a...)
	for _, p := range b {
		if len(a.Slice(series.TimeRange{Start: p.T, End: p.T + 1})) == 0 {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}

// planQueries returns queries over pts's extent: the whole of it at a few
// widths, and random windows.
func planQueries(rng *rand.Rand, pts series.Series) []m4.Query {
	lo, hi := pts[0].T, pts[len(pts)-1].T+1
	qs := []m4.Query{{Tqs: lo, Tqe: hi, W: 1}, {Tqs: lo, Tqe: hi, W: 7}, {Tqs: lo, Tqe: hi, W: 64}}
	for i := 0; i < 20; i++ {
		s := lo + rng.Int63n(hi-lo)
		qs = append(qs, m4.Query{Tqs: s, Tqe: s + 1 + rng.Int63n(hi-s), W: 1 + rng.Intn(40)})
	}
	return qs
}

// checkBase requires the base level of id to hold, at every covered index,
// exactly the scan of pts over that cell.
func checkBase(t *testing.T, name string, p *Pyramid, id string, pts series.Series) {
	t.Helper()
	base := p.series[id].levels[0]
	for _, r := range base.cover {
		for idx := r.lo; idx < r.hi; idx++ {
			have, _ := base.cell(idx)
			if want := scan(pts, idx<<base.log, (idx+1)<<base.log); have != want {
				t.Fatalf("%s: base L%d cell %d holds %v, the scan %v", name, base.log, idx, have, want)
			}
		}
	}
}

// A view taken before a rebuild serves nothing from the levels the rebuild
// touched: its chunk list would disagree with the new cells.
func TestViewRefusesCellsRebuiltSinceSnapshot(t *testing.T) {
	pts := randomSeries(rand.New(rand.NewSource(2)), 500, 0, 4096)
	p := New()
	rebuild(p, "s", pts)
	q := m4.Query{Tqs: 0, Tqe: 4096, W: 4}
	v := p.View("s", q.Range())
	rebuild(p, "s", pts)
	if n := checkPlans(t, v, q, pts); n != 0 {
		t.Fatalf("an old view planned %d spans from rebuilt levels", n)
	}
	if n := checkPlans(t, p.View("s", q.Range()), q, pts); n == 0 {
		t.Fatal("a fresh view planned nothing")
	}
}

// TestViewAllocatesPerLevel pins View's cost to its levels: each level's
// stale index is built in one reused buffer, not by a reallocating insert
// per stale range, so 64 stale ranges cost no more than one.
func TestViewAllocatesPerLevel(t *testing.T) {
	pts := randomSeries(rand.New(rand.NewSource(3)), 4000, 0, 1<<16)
	p := New()
	rebuild(p, "s", pts)
	for i := int64(0); i < 64; i++ {
		p.MarkStale("s", i<<10, i<<10+7)
	}
	sp := p.series["s"]
	if len(sp.stale) != 64 || len(sp.levels) < 4 {
		t.Fatalf("%d stale ranges over %d levels, want 64 over at least 4", len(sp.stale), len(sp.levels))
	}
	r := series.TimeRange{Start: 0, End: 1 << 16}
	allocs := testing.AllocsPerRun(20, func() { p.View("s", r) })
	if limit := float64(2*len(sp.levels) + 3); allocs > limit {
		t.Errorf("View over %d stale ranges and %d levels allocates %.0f times, want at most %.0f",
			len(sp.stale), len(sp.levels), allocs, limit)
	}
}

func TestRebuildReadErrorLeavesStale(t *testing.T) {
	p := New()
	p.MarkStale("s", 0, 99)
	p.Rebuild("s", 0, 99, func(series.TimeRange) (series.Series, error) { return nil, errors.New("unreadable") })
	if st := p.Stats(); st.StaleRanges != 1 || st.RebuildErrors != 1 || st.Cells != 0 {
		t.Fatalf("after a failed read: %+v", st)
	}
	// An empty extent (first > last) drops the series once nothing is stale.
	p.Rebuild("s", 1, 0, nil)
	if st := p.Stats(); st.Series != 0 {
		t.Fatalf("an empty extent kept %+v", st)
	}
}

func TestNilPyramidIsDisabled(t *testing.T) {
	var p *Pyramid
	p.MarkStale("s", 0, 10)
	if p.Stale() != nil || p.View("s", series.TimeRange{Start: 0, End: 10}) != nil ||
		p.Dirty() || p.Stats() != (Stats{}) || p.CheckInvariants("s") != nil {
		t.Fatal("a nil pyramid is not inert")
	}
}

// MarkStale takes a closed range; the +1 to half-open clamps at MaxInt64.
func TestMarkStaleClosedRangeAtEdges(t *testing.T) {
	p := New()
	p.MarkStale("s", math.MaxInt64-1, math.MaxInt64)
	p.MarkStale("s", math.MinInt64, math.MinInt64)
	p.MarkStale("s", 5, 4) // inverted: nothing
	sp := p.series["s"]
	want := rset{{math.MinInt64, math.MinInt64 + 1}, {math.MaxInt64 - 1, math.MaxInt64}}
	if len(sp.stale) != len(want) || sp.stale[0] != want[0] || sp.stale[1] != want[1] {
		t.Fatalf("stale = %v, want %v", sp.stale, want)
	}
}

// seedManifest encodes a two-series pyramid, one with cells and one with
// only stale ranges.
func seedManifest() []byte {
	p := New()
	rebuild(p, "root.a", randomSeries(rand.New(rand.NewSource(3)), 200, -300, 3000))
	p.MarkStale("root.b", 10, 20)
	return p.Encode(42)
}

// countBomb is a CRC-valid manifest of 14 bytes claiming 2^24 series.
func countBomb() []byte {
	pl := encoding.AppendUvarint(encoding.AppendUvarint(nil, 0), 1<<24)
	buf := append(append([]byte(nil), manifestMagic...), pl...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(pl))
}

func TestManifestRoundTrip(t *testing.T) {
	enc := seedManifest()
	p, wm, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if wm != 42 || p.Dirty() {
		t.Fatalf("decoded wm %d dirty %v, want 42 and clean", wm, p.Dirty())
	}
	if again := p.Encode(wm); !bytes.Equal(again, enc) {
		t.Fatal("decode then encode changed the bytes")
	}
	for _, bad := range [][]byte{nil, enc[:len(enc)-1], append(append([]byte(nil), enc[:20]...), enc[21:]...), countBomb()} {
		if _, _, err := Decode(bad); err == nil {
			t.Fatalf("decoded a corrupt %d-byte manifest", len(bad))
		}
	}
}

// A cell's index is its first point's time >> log, and a level's cells are
// stored in index order, so a manifest whose cells do not strictly increase
// in index is refused.
func TestDecodeRejectsUnsortedCells(t *testing.T) {
	p := New()
	rebuild(p, "s", series.Series{{T: 0, V: 1}, {T: 1, V: 2}, {T: 2, V: 3}})
	base := p.series["s"].levels[0]
	if len(base.cells) != 3 || base.log != 0 {
		t.Fatalf("base level L%d holds %d cells, want L0 and 3", base.log, len(base.cells))
	}
	orig := append([]cellAt(nil), base.cells...)
	for name, order := range map[string][3]int{"unsorted": {0, 2, 1}, "duplicate": {0, 1, 1}} {
		for k := range base.cells {
			base.cells[k].agg = orig[order[k]].agg
		}
		if _, _, err := Decode(p.Encode(0)); !errors.Is(err, errCorrupt) {
			t.Errorf("%s cell indexes: Decode returned %v, want errCorrupt", name, err)
		}
	}
}

// A count the bytes cannot justify is refused before it is allocated for.
func TestDecodeCountBombAllocatesLittle(t *testing.T) {
	bomb := countBomb()
	if len(bomb) != 14 {
		t.Fatalf("bomb is %d bytes", len(bomb))
	}
	var err error
	allocated := allocatedBy(func() { _, _, err = Decode(bomb) })
	if !errors.Is(err, errCorrupt) {
		t.Fatalf("count bomb: %v, want errCorrupt", err)
	}
	if allocated > 1<<16 {
		t.Fatalf("count bomb allocated %d bytes", allocated)
	}
}

func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzDecodeManifest: Decode never panics, and on anything it accepts,
// decode∘encode is the identity: the re-encoded state decodes to the same
// watermark and encodes to the same bytes again. A rejected input allocates
// within a small multiple of its size. An accepted one may allocate more by
// what it derives: a base cell of two bytes can stand under one derived
// cell per coarser level, so its bound adds maxLevels+1 cells per decoded
// base cell (the sparse seed below derives 17 cells per stored one).
func FuzzDecodeManifest(f *testing.F) {
	f.Add(seedManifest())
	f.Add(countBomb())
	f.Add(New().Encode(0))
	golden, err := os.ReadFile(filepath.Join("..", "lsm", "testdata", "manifest-v2", "pyramid.pyr"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(sparseManifest())
	f.Fuzz(func(t *testing.T, data []byte) {
		var p *Pyramid
		var wm uint64
		var err error
		n := allocatedBy(func() { p, wm, err = Decode(data) })
		bound := 64*uint64(len(data)) + 1<<20
		if err == nil {
			for _, sp := range p.series {
				if len(sp.levels) > 0 {
					bound += (maxLevels + 1) * uint64(unsafe.Sizeof(cellAt{})) * uint64(len(sp.levels[0].cells))
				}
			}
		}
		if n > bound {
			t.Fatalf("decoding %d bytes allocated %d, over %d", len(data), n, bound)
		}
		if err != nil {
			return
		}
		enc := p.Encode(wm)
		p2, wm2, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded manifest does not decode: %v", err)
		}
		if wm2 != wm || !bytes.Equal(p2.Encode(wm2), enc) {
			t.Fatal("decode∘encode is not the identity")
		}
	})
}
