package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"strconv"

	"m4lsm/internal/lsm"
	"m4lsm/internal/m4"
	"m4lsm/internal/mergeread"
	"m4lsm/internal/series"
)

type reqKind uint8

const (
	kindRender reqKind = iota
	kindQuery
	kindWrite
	numKinds
)

// request is one generated HTTP request together with what the oracle and
// the layer-by-layer replay need to know about it.
type request struct {
	id     int
	kind   reqKind
	series string
	q      m4.Query // render and query: range and span count
	height int      // render
	stmt   string   // query: the m4ql text
	// write: the points as batch entries and as the line-protocol body.
	entries []lsm.BatchEntry
	body    []byte
	url     string
}

const renderHeight = 400

func renderRequest(id int, seriesID string, q m4.Query) *request {
	return &request{
		id: id, kind: kindRender, series: seriesID, q: q, height: renderHeight,
		url: fmt.Sprintf("/render?series=%s&tqs=%d&tqe=%d&w=%d&h=%d", url.QueryEscape(seriesID), q.Tqs, q.Tqe, q.W, renderHeight),
	}
}

func queryRequest(id int, seriesID string, q m4.Query) *request {
	stmt := fmt.Sprintf("SELECT M4(*) FROM %s WHERE time >= %d AND time < %d GROUP BY SPANS(%d)", seriesID, q.Tqs, q.Tqe, q.W)
	return &request{id: id, kind: kindQuery, series: seriesID, q: q, stmt: stmt, url: "/query?q=" + url.QueryEscape(stmt)}
}

func writeRequest(id int, entries []lsm.BatchEntry) *request {
	var body []byte
	for _, ent := range entries {
		for _, p := range ent.Points {
			body = append(body, ent.SeriesID...)
			body = append(body, ' ')
			body = strconv.AppendInt(body, p.T, 10)
			body = append(body, ' ')
			body = strconv.AppendFloat(body, p.V, 'g', -1, 64)
			body = append(body, '\n')
		}
	}
	return &request{id: id, kind: kindWrite, entries: entries, body: body, url: "/write"}
}

// randomWalk is the dense series of dash_aligned: one point per tick.
func randomWalk(n int, seed int64) series.Series {
	rng := rand.New(rand.NewSource(seed))
	out := make(series.Series, n)
	v := 0.0
	for t := range out {
		v += rng.Float64()*2 - 1
		out[t] = series.Point{T: int64(t), V: v}
	}
	return out
}

// dealer deals the classes 0..n-1 in shuffled blocks: every block of n
// requests holds each class once. The mix is then the same for every seed
// and only order and offsets vary, so a percentile that falls inside a class
// stays inside it from run to run.
type dealer struct {
	rng   *rand.Rand
	n     int
	block []int
}

func newDealer(rng *rand.Rand, n int) *dealer { return &dealer{rng: rng, n: n} }

// reset drops what is left of the current block, for a generator whose random
// stream is being rewound.
func (d *dealer) reset() { d.block = nil }

func (d *dealer) next() int {
	if len(d.block) == 0 {
		d.block = d.rng.Perm(d.n)
	}
	c := d.block[0]
	d.block = d.block[1:]
	return c
}

// alignedWindow is the window of 1/2^k of [0, extent) at a window-aligned
// offset: one dashboard zoom level.
func alignedWindow(rng *rand.Rand, extent int64, k, w int) m4.Query {
	win := extent >> uint(k)
	off := rng.Int63n(1<<uint(k)) * win
	return m4.Query{Tqs: off, Tqe: off + win, W: w}
}

// writer generates the write traffic of ingest_ooo and mixed_open and is its
// oracle. In-order points sit on even ticks; a late post fills odd ticks
// behind the series head, so it lands as new points in overlapping chunks,
// not as overwrites; an overwrite post rewrites even ticks with a new
// generation of values. Values are a pure function of (seed, series, tick,
// generation), so the oracle is a few block lists and not a copy of the data.
type writer struct {
	seed   uint64
	series []string
	head   []int64 // per series: the last in-order tick written
	late   [][]block
	over   [][]block
	rng    *rand.Rand
	modes  *dealer // per hundred posts: the first latePct are late, the next overPct overwrite
	hand   []int   // series not yet dealt to a post since the last shuffle
	posts  int

	lateBack int64 // how far behind the head a late post starts, in ticks
	overBack int64 // how far behind the head an overwrite post starts
	latePct  int
	overPct  int
}

// block is n consecutive same-parity ticks starting at start, written with
// value generation gen.
type block struct {
	start int64
	n     int
	gen   int
}

func newWriter(prefix string, nSeries int, seed int64, latePct, overPct int) *writer {
	rng := rand.New(rand.NewSource(seed ^ writerSeedMask))
	w := &writer{
		seed: uint64(seed), rng: rng, modes: newDealer(rng, 100),
		head: make([]int64, nSeries), late: make([][]block, nSeries), over: make([][]block, nSeries),
		lateBack: 5000, overBack: 2000, latePct: latePct, overPct: overPct,
	}
	for i := 0; i < nSeries; i++ {
		w.series = append(w.series, fmt.Sprintf("%s%02d", prefix, i))
		w.head[i] = -2
	}
	return w
}

const writerSeedMask = 0x5eed

// restart rewinds the random stream behind the choice of series and modes:
// the posts that follow have the shape of the first ones — same series, same
// late and overwriting posts in the same places — at the series' new heads.
func (w *writer) restart() {
	w.rng.Seed(int64(w.seed) ^ writerSeedMask)
	w.modes.reset()
	w.hand = nil
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// value is a slow sine plus hashed noise, rounded to three decimals the way
// a sensor reports, so the codec sees realistic bit patterns.
func (w *writer) value(s int, t int64, gen int) float64 {
	h := splitmix(w.seed ^ uint64(s)<<56 ^ uint64(gen)<<40 ^ uint64(t))
	noise := float64(h>>11)/(1<<53) - 0.5
	v := 50 + 20*math.Sin(float64(t)/4000+float64(s)) + 2*noise
	return math.Round(v*1000) / 1000
}

func (w *writer) points(s int, b block) series.Series {
	pts := make(series.Series, b.n)
	for i := range pts {
		t := b.start + 2*int64(i)
		pts[i] = series.Point{T: t, V: w.value(s, t, b.gen)}
	}
	return pts
}

// inOrder extends series s by n points past its head.
func (w *writer) inOrder(s, n int) lsm.BatchEntry {
	b := block{start: w.head[s] + 2, n: n}
	w.head[s] += 2 * int64(n)
	return lsm.BatchEntry{SeriesID: w.series[s], Points: w.points(s, b)}
}

// preload writes n in-order points per series straight into the engine, in
// posts of the same shape the HTTP traffic uses.
func (w *writer) preload(eng *lsm.Engine, n, seriesPerPost, pointsPerSeries int) error {
	for w.head[len(w.series)-1] < 2*int64(n-1) {
		var entries []lsm.BatchEntry
		for s := range w.series {
			if w.head[s] < 2*int64(n-1) && len(entries) < seriesPerPost {
				entries = append(entries, w.inOrder(s, pointsPerSeries))
			}
		}
		if err := eng.WriteBatch(entries...); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

// post generates the next write request: pointsPerSeries points for each of
// seriesPerPost series. The series are dealt, not drawn: a shuffle of all of
// them is handed out post after post, so every series receives the same
// number of points whatever the seed, and the memtables — the engine flushes
// all of them when one holds 1000 points — fill and flush at the same pace.
// A late or overwrite post needs the head far enough out; until then it
// degrades to an in-order one.
func (w *writer) post(id, seriesPerPost, pointsPerSeries int) *request {
	w.posts++
	mode := w.modes.next()
	entries := make([]lsm.BatchEntry, 0, seriesPerPost)
	if len(w.hand) < seriesPerPost {
		w.hand = w.rng.Perm(len(w.series))
	}
	chosen := w.hand[:seriesPerPost]
	w.hand = w.hand[seriesPerPost:]
	for _, s := range chosen {
		switch {
		case mode < w.latePct && w.head[s] > w.lateBack:
			b := block{start: (w.head[s] - w.lateBack) | 1, n: pointsPerSeries}
			w.late[s] = append(w.late[s], b)
			entries = append(entries, lsm.BatchEntry{SeriesID: w.series[s], Points: w.points(s, b)})
		case mode >= w.latePct && mode < w.latePct+w.overPct && w.head[s] > w.overBack:
			b := block{start: (w.head[s] - w.overBack) &^ 1, n: pointsPerSeries, gen: w.posts}
			w.over[s] = append(w.over[s], b)
			entries = append(entries, lsm.BatchEntry{SeriesID: w.series[s], Points: w.points(s, b)})
		default:
			entries = append(entries, w.inOrder(s, pointsPerSeries))
		}
	}
	return writeRequest(id, entries)
}

// expected rebuilds what series s must hold: every acknowledged point,
// the latest generation winning where posts overwrote each other.
func (w *writer) expected(s int) map[int64]float64 {
	exp := make(map[int64]float64, w.head[s]/2+1)
	for t := int64(0); t <= w.head[s]; t += 2 {
		exp[t] = w.value(s, t, 0)
	}
	for _, blocks := range [][]block{w.late[s], w.over[s]} {
		for _, b := range blocks {
			for _, p := range w.points(s, b) {
				exp[p.T] = p.V
			}
		}
	}
	return exp
}

// livePoints counts the distinct points written so far across all series.
func (w *writer) livePoints() int {
	n := 0
	for s := range w.series {
		n += len(w.expected(s))
	}
	return n
}

// verify reads series s back through a merge of all its chunks and the
// memtable and compares it with the oracle, point for point.
func (w *writer) verify(eng *lsm.Engine, s int) error {
	id, exp := w.series[s], w.expected(s)
	r := series.TimeRange{Start: 0, End: w.head[s] + 1}
	snap, err := eng.Snapshot(id, r)
	if err != nil {
		return fmt.Errorf("read back %s: %w", id, err)
	}
	got, err := mergeread.Merge(snap, r)
	if err != nil {
		return fmt.Errorf("read back %s: %w", id, err)
	}
	if len(got) != len(exp) {
		return fmt.Errorf("read back %s: %d points, %d acknowledged", id, len(got), len(exp))
	}
	for _, p := range got {
		if v, ok := exp[p.T]; !ok || v != p.V {
			return fmt.Errorf("read back %s: t=%d holds %v, acknowledged %v (present %v)", id, p.T, p.V, v, ok)
		}
	}
	return nil
}
