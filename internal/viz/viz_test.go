package viz

import (
	"bytes"
	"fmt"
	adler32ref "hash/adler32"
	"image/png"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"m4lsm/internal/m4"
	"m4lsm/internal/series"
)

func TestCanvasSetGet(t *testing.T) {
	c := NewCanvas(8, 4)
	if c.Get(3, 2) {
		t.Error("fresh canvas has lit pixel")
	}
	c.Set(3, 2)
	if !c.Get(3, 2) {
		t.Error("Set/Get mismatch")
	}
	// Out-of-bounds operations are ignored / false.
	c.Set(-1, 0)
	c.Set(8, 0)
	c.Set(0, 4)
	if c.Get(-1, 0) || c.Get(8, 0) || c.Get(0, 4) {
		t.Error("out-of-bounds Get returned true")
	}
	if c.Count() != 1 {
		t.Errorf("Count = %d", c.Count())
	}
}

func TestNewCanvasPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for 0x0 canvas")
		}
	}()
	NewCanvas(0, 5)
}

func TestDrawLineVertical(t *testing.T) {
	c := NewCanvas(4, 8)
	c.DrawLine(2, 1, 2, 6)
	for y := 1; y <= 6; y++ {
		if !c.Get(2, y) {
			t.Errorf("pixel (2,%d) not lit", y)
		}
	}
	if c.Count() != 6 {
		t.Errorf("Count = %d, want 6", c.Count())
	}
}

func TestDrawLineHorizontalAndDiagonal(t *testing.T) {
	c := NewCanvas(8, 8)
	c.DrawLine(1, 3, 6, 3)
	for x := 1; x <= 6; x++ {
		if !c.Get(x, 3) {
			t.Errorf("pixel (%d,3) not lit", x)
		}
	}
	d := NewCanvas(8, 8)
	d.DrawLine(0, 0, 7, 7)
	for i := 0; i < 8; i++ {
		if !d.Get(i, i) {
			t.Errorf("diagonal pixel (%d,%d) not lit", i, i)
		}
	}
}

func TestDrawLineSymmetric(t *testing.T) {
	a := NewCanvas(16, 16)
	b := NewCanvas(16, 16)
	a.DrawLine(2, 3, 13, 9)
	b.DrawLine(13, 9, 2, 3)
	if Diff(a, b) != 0 {
		t.Error("line drawing is direction dependent")
	}
}

// drawLineRef is Bresenham with one Set per pixel, and rasterizeRef the
// per-point mapping written out in full: the rasterizer before its
// vertical-run kernel and hoisted divisors, kept as the reference.
func drawLineRef(c *Canvas, x0, y0, x1, y1 int) {
	dx, dy := abs(x1-x0), -abs(y1-y0)
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

func rasterizeRef(c *Canvas, s series.Series, vp Viewport) {
	havePrev := false
	var px, py int
	for _, p := range s {
		if p.T < vp.Tqs || p.T >= vp.Tqe {
			continue
		}
		x := int(int64(c.W) * (p.T - vp.Tqs) / (vp.Tqe - vp.Tqs))
		y := c.H / 2
		if vp.VMax != vp.VMin {
			y = min(max(int(math.Round((vp.VMax-p.V)/(vp.VMax-vp.VMin)*float64(c.H-1))), 0), c.H-1)
		}
		if havePrev {
			drawLineRef(c, px, py, x, y)
		} else {
			c.Set(x, y)
		}
		px, py, havePrev = x, y, true
	}
}

// TestRasterizeMatchesReference: random segments, clipped ones included,
// and random series, full and M4-reduced, under viewports that clip their
// values, draw the same pixels as the reference.
func TestRasterizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		w, h := 1+rng.Intn(200), 1+rng.Intn(150)
		got, want := NewCanvas(w, h), NewCanvas(w, h)
		for i := 0; i < 20; i++ {
			x0, x1 := rng.Intn(w+40)-20, rng.Intn(w+40)-20
			if i%2 == 0 {
				x1 = x0
			}
			y0, y1 := rng.Intn(h+40)-20, rng.Intn(h+40)-20
			got.DrawLine(x0, y0, x1, y1)
			drawLineRef(want, x0, y0, x1, y1)
		}
		s := genSeries(rng, 1+rng.Intn(4*w))
		vp := ViewportFor(s, 0, s[len(s)-1].T+1)
		if trial%3 == 0 { // clip values and time
			mid := (vp.VMin + vp.VMax) / 2
			vp.VMin, vp.VMax, vp.Tqs = mid-rng.Float64()*10, mid+rng.Float64()*10, vp.Tqe/4
		}
		RasterizeOnto(got, s, vp)
		rasterizeRef(want, s, vp)
		aggs, err := m4.ComputeSeries(m4.Query{Tqs: vp.Tqs, Tqe: vp.Tqe, W: w}, s)
		if err != nil {
			t.Fatal(err)
		}
		RasterizeOnto(got, m4.Points(aggs), vp)
		rasterizeRef(want, m4.Points(aggs), vp)
		if d := Diff(got, want); d != 0 {
			t.Fatalf("trial %d (%dx%d): %d pixels differ from the reference", trial, w, h, d)
		}
	}
}

func TestDiff(t *testing.T) {
	a, b := NewCanvas(4, 4), NewCanvas(4, 4)
	a.Set(0, 0)
	b.Set(3, 3)
	if Diff(a, b) != 2 {
		t.Errorf("Diff = %d, want 2", Diff(a, b))
	}
	b.Set(0, 0)
	a.Set(3, 3)
	if Diff(a, b) != 0 {
		t.Errorf("Diff = %d, want 0", Diff(a, b))
	}
}

func TestDiffPanicsOnSizeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on size mismatch")
		}
	}()
	Diff(NewCanvas(2, 2), NewCanvas(3, 2))
}

func TestViewportMapping(t *testing.T) {
	vp := Viewport{Tqs: 0, Tqe: 100, VMin: 0, VMax: 10}
	if m := vp.mapping(10, 0); m.x(0) != 0 || m.x(99) != 9 || m.x(50) != 5 {
		t.Error("X mapping wrong")
	}
	if m := vp.mapping(0, 11); m.y(10) != 0 || m.y(0) != 10 || m.y(5) != 5 {
		t.Errorf("Y mapping wrong: %d %d %d", m.y(10), m.y(0), m.y(5))
	}
	flat := Viewport{Tqs: 0, Tqe: 10, VMin: 3, VMax: 3}
	if flat.mapping(0, 10).y(3) != 5 {
		t.Error("flat viewport must center values")
	}
}

func TestViewportFor(t *testing.T) {
	s := series.Series{{T: 5, V: -2}, {T: 10, V: 8}, {T: 200, V: 99}}
	vp := ViewportFor(s, 0, 100)
	if vp.VMin != -2 || vp.VMax != 8 {
		t.Errorf("viewport = %+v (out-of-range point must not count)", vp)
	}
	empty := ViewportFor(s, 300, 400)
	if empty.VMin != 0 || empty.VMax != 1 {
		t.Errorf("empty viewport = %+v", empty)
	}
}

// TestViewportForMatchesMinMaxFold: the value bounds are math.Min and
// math.Max folded over every in-range point, signed zeros, infinities and
// NaN included, bit for bit.
func TestViewportForMatchesMinMaxFold(t *testing.T) {
	special := []float64{0, math.Copysign(0, -1), 1, -1, 3.5, math.Inf(1), math.Inf(-1), math.NaN()}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		var s series.Series
		for i := rng.Intn(6); i >= 0; i-- {
			s = append(s, series.Point{T: int64(len(s)), V: special[rng.Intn(len(special))]})
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, p := range s {
			lo, hi = math.Min(lo, p.V), math.Max(hi, p.V)
		}
		vp := ViewportFor(s, 0, int64(len(s)))
		if math.Float64bits(vp.VMin) != math.Float64bits(lo) || math.Float64bits(vp.VMax) != math.Float64bits(hi) {
			t.Fatalf("%v: bounds [%v, %v], the fold [%v, %v]", s, vp.VMin, vp.VMax, lo, hi)
		}
	}
}

func TestRasterizeSinglePoint(t *testing.T) {
	s := series.Series{{T: 50, V: 5}}
	vp := Viewport{Tqs: 0, Tqe: 100, VMin: 0, VMax: 10}
	c := Rasterize(s, vp, 10, 11)
	if c.Count() != 1 || !c.Get(5, 5) {
		t.Errorf("single point raster wrong: count=%d", c.Count())
	}
}

func genSeries(rng *rand.Rand, n int) series.Series {
	s := make(series.Series, 0, n)
	tt := int64(0)
	v := 0.0
	for i := 0; i < n; i++ {
		tt += int64(1 + rng.Intn(20))
		switch rng.Intn(4) {
		case 0:
			v += rng.NormFloat64() * 5
		case 1:
			v = rng.Float64() * 40
		default:
			v += rng.NormFloat64()
		}
		s = append(s, series.Point{T: tt, V: v})
	}
	return s
}

// TestM4ErrorFree validates the paper's headline property: rendering the
// M4-reduced series is pixel-identical to rendering the full series when
// the number of spans equals the pixel width.
func TestM4ErrorFree(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := genSeries(rng, 200+rng.Intn(2000))
		w := 10 + rng.Intn(90)
		h := 20 + rng.Intn(100)
		tqs := int64(0)
		tqe := s[len(s)-1].T + 1
		q := m4.Query{Tqs: tqs, Tqe: tqe, W: w}
		aggs, err := m4.ComputeSeries(q, s)
		if err != nil {
			t.Fatal(err)
		}
		reduced := m4.Points(aggs)
		vp := ViewportFor(s, tqs, tqe)
		full := Rasterize(s, vp, w, h)
		red := Rasterize(reduced, vp, w, h)
		if d := Diff(full, red); d != 0 {
			t.Fatalf("seed %d: pixel error %d of %d lit (w=%d h=%d n=%d)",
				seed, d, full.Count(), w, h, len(s))
		}
	}
}

// TestMinMaxIsNotErrorFree contrasts M4 with the MinMax reduction the
// paper mentions (§5.1): keeping only bottom/top per span loses the
// inter-column join pixels, so the diff must be nonzero on typical data.
func TestMinMaxIsNotErrorFree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nonzero := 0
	for trial := 0; trial < 20; trial++ {
		s := genSeries(rng, 1500)
		w, h := 40, 40
		q := m4.Query{Tqs: 0, Tqe: s[len(s)-1].T + 1, W: w}
		aggs, err := m4.ComputeSeries(q, s)
		if err != nil {
			t.Fatal(err)
		}
		var minmax series.Series
		for _, a := range aggs {
			if a.Empty {
				continue
			}
			lo, hi := a.Bottom, a.Top
			if lo.T > hi.T {
				lo, hi = hi, lo
			}
			if lo.T == hi.T {
				minmax = append(minmax, lo)
				continue
			}
			minmax = append(minmax, lo, hi)
		}
		vp := ViewportFor(s, q.Tqs, q.Tqe)
		if Diff(Rasterize(s, vp, w, h), Rasterize(minmax, vp, w, h)) > 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Error("MinMax rendered error-free on all trials; expected pixel errors")
	}
}

func TestASCII(t *testing.T) {
	c := NewCanvas(3, 2)
	c.Set(1, 0)
	got := c.ASCII()
	want := ".#.\n...\n"
	if got != want {
		t.Errorf("ASCII = %q, want %q", got, want)
	}
	if !strings.Contains(got, "#") {
		t.Error("no lit pixels in ASCII output")
	}
}

func TestWritePNG(t *testing.T) {
	c := NewCanvas(10, 5)
	c.DrawLine(0, 0, 9, 4)
	var buf bytes.Buffer
	if err := c.WritePNG(&buf); err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != 10 || img.Bounds().Dy() != 5 {
		t.Errorf("png bounds = %v", img.Bounds())
	}
}

// TestWritePNGRoundTrip holds the direct encoder to image/png: at widths on
// both sides of the byte and word boundaries, random bits, rasterized
// random walks and flat and checkerboard canvases decode to the canvas's
// bounds and to Get at every pixel. A checkerboard row matches nothing of
// the row above it, the encoder's worst case.
func TestWritePNGRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, w := range []int{1, 7, 8, 63, 64, 65, 1000, 1024} {
		for _, h := range []int{1, 3, 400} {
			noise := NewCanvas(w, h)
			for i := rng.Intn(w*h/2 + 1); i >= 0; i-- {
				noise.Set(rng.Intn(w), rng.Intn(h))
			}
			s := genSeries(rng, 1+rng.Intn(3*w))
			walk := Rasterize(s, ViewportFor(s, 0, s[len(s)-1].T+1), w, h)
			black, checker := NewCanvas(w, h), NewCanvas(w, h)
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					black.Set(x, y)
					if (x+y)%2 == 0 {
						checker.Set(x, y)
					}
				}
			}
			canvases := map[string]*Canvas{"noise": noise, "walk": walk, "white": NewCanvas(w, h), "black": black, "checker": checker}
			for name, c := range canvases {
				checkPNG(t, fmt.Sprintf("%dx%d %s", w, h, name), c)
			}
		}
	}
	// A scanline longer than deflate's 32 KiB window has no row above to
	// copy from; the widest that has one is 32767 bytes plus its filter byte.
	for _, w := range []int{32767 * 8, 32767*8 + 1} {
		c := NewCanvas(w, 3)
		c.DrawLine(0, 0, w-1, 2)
		c.DrawLine(5, 0, 5, 2)
		checkPNG(t, fmt.Sprintf("%dx3 wide", w), c)
	}
}

// checkPNG encodes c and requires image/png to decode it to c's bounds,
// black exactly at the lit pixels and white elsewhere.
func checkPNG(t *testing.T, name string, c *Canvas) {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WritePNG(&buf); err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(&buf)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if b := img.Bounds(); b.Min.X != 0 || b.Min.Y != 0 || b.Dx() != c.W || b.Dy() != c.H {
		t.Fatalf("%s: bounds %v", name, b)
	}
	lit := 0
	for y := 0; y < c.H; y++ {
		for x := 0; x < c.W; x++ {
			r, g, b, _ := img.At(x, y).RGBA()
			black := r == 0 && g == 0 && b == 0
			if !black && (r != 0xffff || g != 0xffff || b != 0xffff) {
				t.Fatalf("%s: pixel (%d,%d) is neither black nor white", name, x, y)
			}
			if black != c.Get(x, y) {
				t.Fatalf("%s: pixel (%d,%d) decodes black=%v, Get=%v", name, x, y, black, c.Get(x, y))
			}
			if black {
				lit++
			}
		}
	}
	if lit != c.Count() {
		t.Fatalf("%s: %d black pixels, Count %d", name, lit, c.Count())
	}
}

// FuzzWritePNG: any canvas decodes through image/png to Get at every pixel.
// The canvas is w×h with pixel k (row-major) lit iff bit k%8 of
// pattern[k/8 % len(pattern)] is set, so a pattern whose length divides
// the row repeats rows and one that does not shifts them.
func FuzzWritePNG(f *testing.F) {
	f.Add(uint16(1024), uint8(40), []byte{0xff, 0, 0, 0x10})
	f.Add(uint16(65), uint8(3), []byte{0x55})
	f.Add(uint16(7), uint8(1), []byte{})
	f.Fuzz(func(t *testing.T, w uint16, h uint8, pattern []byte) {
		c := NewCanvas(1+int(w)%2048, 1+int(h)%64)
		if len(pattern) > 0 {
			for y := 0; y < c.H; y++ {
				for x := 0; x < c.W; x++ {
					if k := y*c.W + x; pattern[k/8%len(pattern)]>>(k%8)&1 != 0 {
						c.Set(x, y)
					}
				}
			}
		}
		checkPNG(t, fmt.Sprintf("%dx%d", c.W, c.H), c)
	})
}

// TestAdler32 holds the eight-bytes-at-a-time checksum to hash/adler32,
// across its 5552-byte blocks and with every byte 0xff, the largest sums.
func TestAdler32(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 3*5552+17)
	for name, fill := range map[string]func(i int) byte{
		"ff":     func(int) byte { return 0xff },
		"random": func(int) byte { return byte(rng.Intn(256)) },
	} {
		for i := range buf {
			buf[i] = fill(i)
		}
		for n := 0; n <= len(buf); n += 1 + n/7 {
			if got, want := adler32(buf[:n]), adler32ref.Checksum(buf[:n]); got != want {
				t.Fatalf("%s, %d bytes: adler32 %#x, hash/adler32 %#x", name, n, got, want)
			}
		}
	}
}

// raceEnabled is set by race_test.go in race-detector builds.
var raceEnabled bool

// TestWritePNGAllocations: once the pooled encoder is warm, an encode
// allocates the same small constant whatever the canvas size.
func TestWritePNGAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	allocs := func(w, h int) float64 {
		c := NewCanvas(w, h)
		c.DrawLine(0, 0, w-1, h-1)
		c.WritePNG(io.Discard)
		return testing.AllocsPerRun(20, func() {
			if err := c.WritePNG(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	big, small := allocs(1024, 400), allocs(64, 8)
	if big != small || big > 2 {
		t.Errorf("allocations per encode: %v at 1024x400, %v at 64x8; want the same constant, at most 2", big, small)
	}
}

func BenchmarkWritePNG(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := genSeries(rng, 20000)
	c := Rasterize(s, ViewportFor(s, 0, s[len(s)-1].T+1), 1024, 400)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := c.WritePNG(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len()), "bytes")
}

// BenchmarkRenderAligned draws what a cell-aligned /render draws: a
// 2^19-point random walk, one point per tick, M4-reduced to 1024 columns
// over windows of 1/2^k of its range (k = 0..4), on 1024×400 canvases.
// Each iteration draws the next window, so both sub-benchmarks report the
// mean over the five zooms.
func BenchmarkRenderAligned(b *testing.B) {
	const n, w, h = 1 << 19, 1024, 400
	rng := rand.New(rand.NewSource(1))
	walk := make(series.Series, n)
	v := 0.0
	for i := range walk {
		v += rng.Float64()*2 - 1
		walk[i] = series.Point{T: int64(i), V: v}
	}
	var reduced []series.Series
	var windows []m4.Query
	for k := 0; k < 5; k++ {
		win := int64(n >> k)
		q := m4.Query{Tqs: rng.Int63n(1<<k) * win, W: w}
		q.Tqe = q.Tqs + win
		aggs, err := m4.ComputeSeries(q, walk.Slice(q.Range()))
		if err != nil {
			b.Fatal(err)
		}
		reduced, windows = append(reduced, m4.Points(aggs)), append(windows, q)
	}
	draw := func(i int) *Canvas {
		pts, q := reduced[i%len(reduced)], windows[i%len(windows)]
		c := NewCanvas(w, h)
		RasterizeOnto(c, pts, ViewportForAll([]series.Series{pts}, q.Tqs, q.Tqe))
		return c
	}
	b.Run("rasterize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += draw(i).W
		}
	})
	b.Run("png", func(b *testing.B) {
		canvases := make([]*Canvas, len(reduced))
		for i := range canvases {
			canvases[i] = draw(i)
		}
		var buf bytes.Buffer
		written := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := canvases[i%len(canvases)].WritePNG(&buf); err != nil {
				b.Fatal(err)
			}
			written += buf.Len()
		}
		b.ReportMetric(float64(written)/float64(b.N), "bytes")
	})
}

// sink keeps benchmark results live.
var sink int

func TestRasterizeSkipsOutOfRange(t *testing.T) {
	s := series.Series{{T: -10, V: 0}, {T: 5, V: 5}, {T: 200, V: 9}}
	vp := Viewport{Tqs: 0, Tqe: 100, VMin: 0, VMax: 10}
	c := Rasterize(s, vp, 10, 10)
	// Only t=5 is in range: exactly one pixel.
	if c.Count() != 1 {
		t.Errorf("count = %d, want 1", c.Count())
	}
}

// ASCII renders the canvas with '#' for lit pixels, one row per line.
func (c *Canvas) ASCII() string {
	var sb strings.Builder
	for y := 0; y < c.H; y++ {
		for x := 0; x < c.W; x++ {
			if c.Get(x, y) {
				sb.WriteByte('#')
			} else {
				sb.WriteByte('.')
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Get reports whether the pixel at (x, y) is lit.
func (c *Canvas) Get(x, y int) bool {
	if x < 0 || x >= c.W || y < 0 || y >= c.H {
		return false
	}
	word, mask := c.pixel(x, y)
	return *word&mask != 0
}
