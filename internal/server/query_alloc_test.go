package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime/debug"
	"testing"

	"m4lsm/internal/lsm"
	"m4lsm/internal/workload"
)

// paperColdQueries returns a handler over 2^16 points of the MF03 preset,
// loaded as the paper_cold benchmark loads it (chunks of 1000, a tenth of
// them overlapping, no pyramid), and M4(*) /query requests over it with
// w = 1000 spans, each window a random fraction of at least half the data.
func paperColdQueries(tb testing.TB) (*Handler, []*http.Request) {
	tb.Helper()
	e, err := lsm.Open(lsm.Options{Dir: tb.TempDir(), DisableWAL: true, DisablePyramid: true})
	if err != nil {
		tb.Fatal(err)
	}
	data := workload.MF03().Generate(1<<16, 1)
	if err := workload.Load(e, "root.mf03", data, workload.LoadOptions{ChunkSize: 1000, OverlapFraction: 0.10, Seed: 1}); err != nil {
		tb.Fatal(err)
	}
	h := NewWith(e, Config{})
	tb.Cleanup(func() {
		h.Close()
		e.Close()
	})
	first, last := data[0].T, data[len(data)-1].T+1
	rng := rand.New(rand.NewSource(2))
	var reqs []*http.Request
	for range 16 {
		win := (last - first) / 2 * (1 + rng.Int63n(100)) / 100
		off := first + rng.Int63n(last-first-win+1)
		q := fmt.Sprintf("SELECT M4(*) FROM root.mf03 WHERE time >= %d AND time < %d GROUP BY SPANS(1000)", off, off+win)
		reqs = append(reqs, httptest.NewRequest(http.MethodGet, "/query?q="+url.QueryEscape(q), nil))
	}
	return h, reqs
}

// TestPaperColdQueryAllocations: once warm, a paper_cold-shaped /query of
// 1000 spans allocates at most 32 KiB (about 8 KiB on linux/amd64). The
// answer is written from the operator's aggregates into one pooled buffer
// and the aggregates go back to their pool, so what is left is the
// snapshot and the request's own state. Tabulating the rows as
// [][]float64 and encoding them with encoding/json cost about 148 KiB.
func TestPaperColdQueryAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	h, reqs := paperColdQueries(t)
	renderAll(t, h, reqs, 2*len(reqs))
	const runs = 64
	if kib := float64(renderAll(t, h, reqs, runs)) / runs / 1024; kib > 32 {
		t.Errorf("a warm paper_cold /query allocated %.1f KiB, want at most 32", kib)
	}
}

// BenchmarkQueryHandler is one paper_cold-shaped M4(*) /query of 1000 spans
// through the handler: parsing, admission, snapshot, the operator and the
// JSON answer, with the response body discarded.
func BenchmarkQueryHandler(b *testing.B) {
	h, reqs := paperColdQueries(b)
	renderAll(b, h, reqs, len(reqs))
	b.ReportAllocs()
	b.ResetTimer()
	allocated := renderAll(b, h, reqs, b.N)
	b.ReportMetric(float64(allocated)/1024/float64(b.N), "KiB/op")
}
