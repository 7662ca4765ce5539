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
	vp := Viewport{Tqs: tqs, Tqe: tqe, VMin: math.Inf(1), VMax: math.Inf(-1)}
	for _, p := range s {
		if p.T < tqs || p.T >= tqe {
			continue
		}
		vp.VMin = math.Min(vp.VMin, p.V)
		vp.VMax = math.Max(vp.VMax, p.V)
	}
	if vp.VMin > vp.VMax { // no points in range
		vp.VMin, vp.VMax = 0, 1
	}
	return vp
}

// ViewportForAll derives one shared viewport spanning the value bounds of
// several series over a query range, so overlaid charts share a y-axis.
func ViewportForAll(ss []series.Series, tqs, tqe int64) Viewport {
	vp := Viewport{Tqs: tqs, Tqe: tqe, VMin: math.Inf(1), VMax: math.Inf(-1)}
	for _, s := range ss {
		for _, p := range s {
			if p.T < tqs || p.T >= tqe {
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

// X maps a timestamp to its pixel column using the span mapping of
// Definition 2.3.
func (vp Viewport) X(t int64, w int) int {
	return int(int64(w) * (t - vp.Tqs) / (vp.Tqe - vp.Tqs))
}

// Y maps a value to its pixel row (0 at the top).
func (vp Viewport) Y(v float64, h int) int {
	if vp.VMax == vp.VMin {
		return h / 2
	}
	y := int(math.Round((vp.VMax - v) / (vp.VMax - vp.VMin) * float64(h-1)))
	if y < 0 {
		y = 0
	}
	if y >= h {
		y = h - 1
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
func RasterizeOnto(c *Canvas, s series.Series, vp Viewport) {
	w, h := c.W, c.H
	havePrev := false
	var px, py int
	for _, p := range s {
		if p.T < vp.Tqs || p.T >= vp.Tqe {
			continue
		}
		x, y := vp.X(p.T, w), vp.Y(p.V, h)
		if havePrev {
			c.DrawLine(px, py, x, y)
		} else {
			c.Set(x, y)
		}
		px, py, havePrev = x, y, true
	}
}
