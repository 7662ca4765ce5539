package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"m4lsm/internal/encoding"
	"m4lsm/internal/m4"
	"m4lsm/internal/m4lsm"
	"m4lsm/internal/m4ql"
	"m4lsm/internal/series"
	"m4lsm/internal/stepreg"
	"m4lsm/internal/viz"
)

// One go-test benchmark per layer that had none, on the traced run's own
// fixtures: the full-scale data of the workload on which the layer matters.
//
//	go test -run '^$' -bench . -benchtime 100x ./...   (from bench/)

// loaded caches one served, loaded workload per name for the whole test
// binary; TestMain removes the data afterwards.
var loaded = map[string]*loadedWorkload{}

type loadedWorkload struct {
	e  *env
	fx *fixture
}

var benchDir string

func TestMain(m *testing.M) {
	code := m.Run()
	for _, lw := range loaded {
		lw.e.kill()
	}
	if benchDir != "" {
		os.RemoveAll(benchDir)
	}
	os.Exit(code)
}

func loadFor(b *testing.B, name string) *loadedWorkload {
	b.Helper()
	if lw, ok := loaded[name]; ok {
		return lw
	}
	if benchDir == "" {
		dir, err := os.MkdirTemp("", "m4bench-layers-")
		if err != nil {
			b.Fatal(err)
		}
		benchDir = dir
	}
	def, _ := findWorkload(name)
	cfg := runConfig{def: def, sc: fullScale[name], seed: 1, dir: benchDir}
	dir, err := os.MkdirTemp(benchDir, name+"-")
	if err != nil {
		b.Fatal(err)
	}
	e, fx, err := setUp(cfg, dir, 0)
	if err != nil {
		b.Fatal(err)
	}
	loaded[name] = &loadedWorkload{e, fx}
	return loaded[name]
}

// requests pre-generates n requests of kind from the workload's sequence.
func requests(lw *loadedWorkload, kind reqKind, n int) []*request {
	var out []*request
	for id := 0; len(out) < n; id++ {
		if r := lw.fx.next(id); r.kind == kind {
			out = append(out, r)
		}
	}
	return out
}

var sink int

func BenchmarkM4qlParse(b *testing.B) {
	reqs := requests(loadFor(b, wlPaperCold), kindQuery, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stmt, err := m4ql.Parse(reqs[i%len(reqs)].stmt)
		if err != nil {
			b.Fatal(err)
		}
		sink += stmt.Query.W
	}
}

func BenchmarkSnapshot(b *testing.B) {
	lw := loadFor(b, wlDashAligned)
	reqs := requests(lw, kindRender, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := reqs[i%len(reqs)]
		snap, err := lw.e.eng.Snapshot(r.series, r.q.Range())
		if err != nil {
			b.Fatal(err)
		}
		sink += len(snap.Chunks)
	}
}

// BenchmarkPyramidPlan is the operator on cell-aligned windows: planning and
// combining cells, no chunk loaded.
func BenchmarkPyramidPlan(b *testing.B) {
	lw := loadFor(b, wlDashAligned)
	reqs := requests(lw, kindRender, 64)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := reqs[i%len(reqs)]
		snap, err := lw.e.eng.Snapshot(r.series, r.q.Range())
		if err != nil {
			b.Fatal(err)
		}
		aggs, err := m4lsm.ComputeContext(ctx, snap, r.q, m4lsm.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if loads := snap.Stats.Load().ChunksLoaded; loads != 0 {
			b.Fatalf("aligned window loaded %d chunks", loads)
		}
		sink += len(aggs)
	}
}

func BenchmarkReadChunk(b *testing.B) {
	lw := loadFor(b, wlPaperCold)
	r, meta, err := largestChunk(lw.e.dir, lw.fx.probe)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := r.ReadChunk(meta)
		if err != nil {
			b.Fatal(err)
		}
		sink += len(data)
	}
}

// chunkColumns returns the largest chunk of paper_cold, decoded and encoded.
func chunkColumns(b *testing.B) (ts []int64, vs []float64, tb, vb []byte) {
	lw := loadFor(b, wlPaperCold)
	r, meta, err := largestChunk(lw.e.dir, lw.fx.probe)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	data, err := r.ReadChunk(meta)
	if err != nil {
		b.Fatal(err)
	}
	ts, vs = data.Times(), data.Values()
	return ts, vs, encoding.CodecGorilla.EncodeTimesWith(nil, ts), encoding.CodecGorilla.EncodeValuesWith(nil, vs)
}

func BenchmarkDecodeTimes(b *testing.B) {
	_, _, tb, _ := chunkColumns(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts, _, err := encoding.CodecGorilla.DecodeTimesWith(tb)
		if err != nil {
			b.Fatal(err)
		}
		sink += len(ts)
	}
}

func BenchmarkDecodeValues(b *testing.B) {
	_, _, _, vb := chunkColumns(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vs, _, err := encoding.CodecGorilla.DecodeValuesWith(vb)
		if err != nil {
			b.Fatal(err)
		}
		sink += len(vs)
	}
}

func BenchmarkStepregProbe(b *testing.B) {
	ts, _, _, _ := chunkColumns(b)
	ix := stepreg.Build(ts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := ts[i%len(ts)]
		if ix.Exists(t) {
			sink++
		}
		if pos, ok := ix.FirstAfter(t); ok {
			sink += pos
		}
	}
}

// reduced returns the M4 points of a full-range dash_aligned render.
func reduced(b *testing.B) (series.Series, m4.Query) {
	lw := loadFor(b, wlDashAligned)
	q := fullRange(lw.fx, fullScale[wlDashAligned].width)
	snap, err := lw.e.eng.Snapshot(lw.fx.probe, q.Range())
	if err != nil {
		b.Fatal(err)
	}
	aggs, err := m4lsm.Compute(snap, q)
	if err != nil {
		b.Fatal(err)
	}
	return m4.Points(aggs), q
}

func BenchmarkRasterize(b *testing.B) {
	pts, q := reduced(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vp := viz.ViewportForAll([]series.Series{pts}, q.Tqs, q.Tqe)
		canvas := viz.NewCanvas(q.W, renderHeight)
		viz.RasterizeOnto(canvas, pts, vp)
		sink += canvas.Count()
	}
}

func BenchmarkPNGEncode(b *testing.B) {
	pts, q := reduced(b)
	canvas := viz.Rasterize(pts, viz.ViewportForAll([]series.Series{pts}, q.Tqs, q.Tqe), q.W, renderHeight)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := canvas.WritePNG(&buf); err != nil {
			b.Fatal(err)
		}
		sink += buf.Len()
	}
}

func BenchmarkJSONEncode(b *testing.B) {
	lw := loadFor(b, wlPaperCold)
	res, err := m4ql.Run(lw.e.eng, queryRequest(0, lw.fx.probe, fullRange(lw.fx, 1000)).stmt)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, err := json.Marshal(res)
		if err != nil {
			b.Fatal(err)
		}
		sink += len(body)
	}
}

// BenchmarkWriteBatch is one ingest_ooo post (8 series × 32 points) handed
// to the engine directly: WAL group commit with fsync, memtable, and the
// flushes and pyramid work that fall due.
func BenchmarkWriteBatch(b *testing.B) {
	lw := loadFor(b, wlIngestOOO)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := lw.fx.write(i)
		b.StartTimer()
		if err := lw.e.eng.WriteBatch(r.entries...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHTTPRoundTrip is the loopback cost under every request: a GET of
// /series, which does next to nothing behind the handler.
func BenchmarkHTTPRoundTrip(b *testing.B) {
	lw := loadFor(b, wlDashAligned)
	r := &request{kind: kindQuery, url: "/series"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, err := lw.e.do(r)
		if err != nil {
			b.Fatal(fmt.Errorf("round trip: %w", err))
		}
		sink += len(body)
	}
}
