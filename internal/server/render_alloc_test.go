package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"testing"

	"m4lsm/internal/lsm"
	"m4lsm/internal/series"
)

// raceEnabled is set by race_test.go in race-detector builds.
var raceEnabled bool

// alignedPoints is the length of alignedRenders' series: a random walk at
// t = 0, 1, ..., flushed, so that every power-of-two-aligned window is
// answered from pyramid cells alone.
const alignedPoints = 1 << 17

// alignedRenders returns a handler over alignedPoints points of root.walk
// and the cell-aligned 1024×400 /render requests over it, one per 2^13
// offset of a 2^16-wide window.
func alignedRenders(tb testing.TB) (*Handler, []*http.Request) {
	tb.Helper()
	e, err := lsm.Open(lsm.Options{Dir: tb.TempDir(), DisableWAL: true})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	v := 0.0
	for off := 0; off < alignedPoints; off += 4096 {
		batch := make(series.Series, 4096)
		for i := range batch {
			v += rng.Float64()*2 - 1
			batch[i] = series.Point{T: int64(off + i), V: v}
		}
		if err := e.Write("root.walk", batch...); err != nil {
			tb.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		tb.Fatal(err)
	}
	h := NewWith(e, Config{})
	tb.Cleanup(func() {
		h.Close()
		e.Close()
	})
	var reqs []*http.Request
	for off := 0; off+1<<16 <= alignedPoints; off += 1 << 13 {
		reqs = append(reqs, httptest.NewRequest(http.MethodGet,
			fmt.Sprintf("/render?series=root.walk&tqs=%d&tqe=%d&w=1024&h=400", off, off+1<<16), nil))
	}
	return h, reqs
}

// discardWriter is a ResponseWriter that keeps the status and drops the
// body, so that what a request allocates is the handler's alone.
type discardWriter struct {
	header http.Header
	code   int
}

func (d *discardWriter) Header() http.Header         { return d.header }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(code int)        { d.code = code }

// renderAll serves requests n times round-robin and returns the bytes they
// allocated.
func renderAll(tb testing.TB, h *Handler, reqs []*http.Request, n int) uint64 {
	w := &discardWriter{header: http.Header{}}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	start := ms.TotalAlloc
	for i := 0; i < n; i++ {
		clear(w.header)
		w.code = http.StatusOK
		h.ServeHTTP(w, reqs[i%len(reqs)])
		if w.code != http.StatusOK {
			tb.Fatalf("%s: status %d", reqs[i%len(reqs)].URL, w.code)
		}
	}
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc - start
}

// TestAlignedRenderAllocations: once warm, a pyramid-answered 1024×400
// /render allocates at most 96 KiB: the operator's plan tables, the points
// and the canvas go back to their pools when the response is written, and
// what is left is the snapshot, the request's own state and the PNG's
// framing.
func TestAlignedRenderAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	h, reqs := alignedRenders(t)
	renderAll(t, h, reqs, 2*len(reqs))
	const runs = 64
	if kib := float64(renderAll(t, h, reqs, runs)) / runs / 1024; kib > 96 {
		t.Errorf("a warm aligned /render allocated %.1f KiB, want at most 96", kib)
	}
}

// BenchmarkRenderHandler is one cell-aligned 1024×400 /render through the
// handler: parameters, admission, snapshot, pyramid plan, rasterizing and
// PNG encoding, with the response body discarded.
func BenchmarkRenderHandler(b *testing.B) {
	h, reqs := alignedRenders(b)
	renderAll(b, h, reqs, len(reqs))
	b.ReportAllocs()
	b.ResetTimer()
	allocated := renderAll(b, h, reqs, b.N)
	b.ReportMetric(float64(allocated)/1024/float64(b.N), "KiB/op")
}
