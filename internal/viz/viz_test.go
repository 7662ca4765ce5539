package viz

import (
	"bytes"
	"image/png"
	"io"
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
	if vp.X(0, 10) != 0 || vp.X(99, 10) != 9 || vp.X(50, 10) != 5 {
		t.Error("X mapping wrong")
	}
	if vp.Y(10, 11) != 0 || vp.Y(0, 11) != 10 || vp.Y(5, 11) != 5 {
		t.Errorf("Y mapping wrong: %d %d %d", vp.Y(10, 11), vp.Y(0, 11), vp.Y(5, 11))
	}
	flat := Viewport{Tqs: 0, Tqe: 10, VMin: 3, VMax: 3}
	if flat.Y(3, 10) != 5 {
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
// both sides of the byte and word boundaries, random bits and rasterized
// random walks decode to the canvas's bounds and to Get at every pixel.
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
			for name, c := range map[string]*Canvas{"noise": noise, "walk": walk} {
				var buf bytes.Buffer
				if err := c.WritePNG(&buf); err != nil {
					t.Fatal(err)
				}
				img, err := png.Decode(&buf)
				if err != nil {
					t.Fatalf("%dx%d %s: %v", w, h, name, err)
				}
				if b := img.Bounds(); b.Min.X != 0 || b.Min.Y != 0 || b.Dx() != w || b.Dy() != h {
					t.Fatalf("%dx%d %s: bounds %v", w, h, name, b)
				}
				lit := 0
				for y := 0; y < h; y++ {
					for x := 0; x < w; x++ {
						r, g, b, _ := img.At(x, y).RGBA()
						black := r == 0 && g == 0 && b == 0
						if !black && (r != 0xffff || g != 0xffff || b != 0xffff) {
							t.Fatalf("%dx%d %s: pixel (%d,%d) is neither black nor white", w, h, name, x, y)
						}
						if black != c.Get(x, y) {
							t.Fatalf("%dx%d %s: pixel (%d,%d) decodes black=%v, Get=%v", w, h, name, x, y, black, c.Get(x, y))
						}
						if black {
							lit++
						}
					}
				}
				if lit != c.Count() {
					t.Fatalf("%dx%d %s: %d black pixels, Count %d", w, h, name, lit, c.Count())
				}
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
