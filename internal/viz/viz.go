// Package viz rasterizes time series into two-color (binary) line charts,
// the rendering model under which M4 is error-free (§1, Fig. 1). It exists
// to validate that claim end-to-end: rasterizing the M4-reduced series must
// produce the identical bitmap to rasterizing the full series, pixel for
// pixel, as long as the number of M4 spans equals the pixel width.
//
// The x mapping is the span mapping of Definition 2.3 (every point of span
// i lands in pixel column i); intra-column line segments therefore render
// as vertical runs, which is exactly the regime in which first/last/bottom/
// top points preserve every lit pixel.
package viz

import (
	"fmt"
	"math"
	"math/bits"

	"m4lsm/internal/m4"
	"m4lsm/internal/series"
)

// Canvas is a binary pixel grid; (0,0) is the top-left corner. Each row
// starts on a word boundary and holds its pixels in PNG bit order: pixel x
// of row y is bit 63-x%64 of word y*stride+x/64, so a row's words written
// big-endian are its 1-bit scanline (see WritePNG). Bits past W stay clear.
type Canvas struct {
	W, H   int
	stride int // words per row
	bits   []uint64
}

// NewCanvas allocates a cleared canvas. It panics on non-positive
// dimensions, which are always a programming error.
func NewCanvas(w, h int) *Canvas {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("viz: invalid canvas %dx%d", w, h))
	}
	stride := (w + 63) / 64
	return &Canvas{W: w, H: h, stride: stride, bits: make([]uint64, stride*h)}
}

// pixel returns the word holding the in-bounds pixel (x, y) and its mask.
func (c *Canvas) pixel(x, y int) (*uint64, uint64) {
	return &c.bits[y*c.stride+x/64], 1 << (63 - x%64)
}

// Set lights the pixel at (x, y); out-of-bounds coordinates are ignored.
func (c *Canvas) Set(x, y int) {
	if x < 0 || x >= c.W || y < 0 || y >= c.H {
		return
	}
	word, mask := c.pixel(x, y)
	*word |= mask
}

// Count returns the number of lit pixels.
func (c *Canvas) Count() int {
	n := 0
	for _, w := range c.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// DrawLine lights the pixels of the segment from (x0,y0) to (x1,y1) with
// Bresenham's algorithm (no anti-aliasing: two-color charts).
func (c *Canvas) DrawLine(x0, y0, x1, y1 int) {
	if x0 == x1 {
		c.column(x0, min(y0, y1), max(y0, y1))
		return
	}
	dx := abs(x1 - x0)
	dy := -abs(y1 - y0)
	sx, sy := 1, 1
	if x0 > x1 {
		sx = -1
	}
	if y0 > y1 {
		sy = -1
	}
	err := dx + dy
	for {
		c.Set(x0, y0)
		if x0 == x1 && y0 == y1 {
			return
		}
		e2 := 2 * err
		if e2 >= dy {
			err += dy
			x0 += sx
		}
		if e2 <= dx {
			err += dx
			y0 += sy
		}
	}
}

// column lights pixels (x, y0) through (x, y1), y0 ≤ y1: Bresenham's
// segment when dx = 0, which is three in four of an M4 chart's segments.
// It clips once and then sets one word per row.
func (c *Canvas) column(x, y0, y1 int) {
	if x < 0 || x >= c.W {
		return
	}
	y0, y1 = max(y0, 0), min(y1, c.H-1)
	mask := uint64(1) << (63 - x%64)
	for i := y0*c.stride + x/64; y0 <= y1; y0++ {
		c.bits[i] |= mask
		i += c.stride
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Diff counts pixels that differ between two canvases of equal size; it is
// the pixel-error metric of the evaluation. It panics on size mismatch.
func Diff(a, b *Canvas) int {
	if a.W != b.W || a.H != b.H {
		panic(fmt.Sprintf("viz: diff of %dx%d vs %dx%d", a.W, a.H, b.W, b.H))
	}
	n := 0
	for i := range a.bits {
		n += bits.OnesCount64(a.bits[i] ^ b.bits[i])
	}
	return n
}

// Viewport maps data coordinates to pixels: the half-open time range
// [Tqs, Tqe) across the width and the closed value range [VMin, VMax]
// across the height.
type Viewport struct {
	Tqs, Tqe   int64
	VMin, VMax float64
}

// ViewportFor derives a viewport from the series' own bounds over a query
// range.
func ViewportFor(s series.Series, tqs, tqe int64) Viewport {
	return ViewportForAll([]series.Series{s}, tqs, tqe)
}

// ViewportForAll derives one shared viewport spanning the value bounds of
// several series over a query range, so overlaid charts share a y-axis.
func ViewportForAll(ss []series.Series, tqs, tqe int64) Viewport {
	vp := Viewport{Tqs: tqs, Tqe: tqe, VMin: math.Inf(1), VMax: math.Inf(-1)}
	for _, s := range ss {
		for _, p := range s {
			// A value strictly inside the bounds changes neither, so only
			// the others pay for math.Min and math.Max (NaN and signed zeros).
			if p.T < tqs || p.T >= tqe || (p.V > vp.VMin && p.V < vp.VMax) {
				continue
			}
			vp.VMin = math.Min(vp.VMin, p.V)
			vp.VMax = math.Max(vp.VMax, p.V)
		}
	}
	if vp.VMin > vp.VMax { // no points in range
		vp.VMin, vp.VMax = 0, 1
	}
	return vp
}

// pixelMap is a viewport's mapping onto a w×h canvas, with what the
// per-point loop divides by taken once.
type pixelMap struct {
	q            m4.Query // the time range across w columns
	flat         bool     // VMax == VMin
	vmax, vrange float64
	h            int
	rows         float64 // h-1
}

func (vp Viewport) mapping(w, h int) pixelMap {
	return pixelMap{q: m4.Query{Tqs: vp.Tqs, Tqe: vp.Tqe, W: w}, flat: vp.VMax == vp.VMin,
		vmax: vp.VMax, vrange: vp.VMax - vp.VMin, h: h, rows: float64(h - 1)}
}

// x maps a timestamp in [Tqs, Tqe) to its pixel column: the span it falls
// in under Definition 2.3, exact however wide the range.
func (m pixelMap) x(t int64) int { return m.q.SpanIndex(t) }

// y maps a value to its pixel row (0 at the top).
func (m pixelMap) y(v float64) int {
	if m.flat {
		return m.h / 2
	}
	y := int(math.Round((m.vmax - v) / m.vrange * m.rows))
	if y < 0 {
		y = 0
	}
	if y >= m.h {
		y = m.h - 1
	}
	return y
}

// Rasterize draws the line chart of s (which must be sorted by time)
// within the viewport onto a fresh w×h canvas. Consecutive in-range points
// are connected; points outside the time range are skipped entirely, so
// the chart matches what an M4 query over [Tqs, Tqe) represents.
func Rasterize(s series.Series, vp Viewport, w, h int) *Canvas {
	c := NewCanvas(w, h)
	RasterizeOnto(c, s, vp)
	return c
}

// RasterizeOnto draws s into an existing canvas, for overlaying several
// series (a multi-series render) on one shared viewport.
//
// Consecutive points in one pixel column, such as an M4 span's four, join
// with vertical segments that share their end rows, so together they light
// one run from the lowest row to the highest: the run is drawn once, when
// the series leaves the column.
func RasterizeOnto(c *Canvas, s series.Series, vp Viewport) {
	m := vp.mapping(c.W, c.H)
	havePrev := false
	var px, py, lo, hi int // the previous point; the rows of its column's run
	for _, p := range s {
		if p.T < vp.Tqs || p.T >= vp.Tqe {
			continue
		}
		x, y := m.x(p.T), m.y(p.V)
		switch {
		case !havePrev:
			lo, hi = y, y
		case x == px:
			lo, hi = min(lo, y), max(hi, y)
		default:
			c.column(px, lo, hi)
			c.DrawLine(px, py, x, y)
			lo, hi = y, y
		}
		px, py, havePrev = x, y, true
	}
	if havePrev {
		c.column(px, lo, hi)
	}
}
