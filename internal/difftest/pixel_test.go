package difftest

import (
	"fmt"
	"testing"

	"m4lsm/internal/lsm"
	"m4lsm/internal/m4"
	"m4lsm/internal/m4lsm"
	"m4lsm/internal/mergeread"
	"m4lsm/internal/series"
	"m4lsm/internal/viz"
	"m4lsm/internal/workload"
)

// TestGoldenPixelEquivalence is the paper's error-free guarantee as a
// golden test at dashboard-sized canvases: for engine states with overlap,
// overwrites and deletes, rendering the M4-LSM reduction must light exactly
// the pixels of rendering the full merged series. Unlike TestDifferential's
// small canvas, this uses the real presets at larger widths, so span/pixel
// boundary arithmetic is exercised at production shapes.
func TestGoldenPixelEquivalence(t *testing.T) {
	canvases := []struct{ w, h int }{
		{200, 100},
		{480, 270},
		{1000, 500},
	}
	if testing.Short() {
		canvases = canvases[:2]
	}
	for _, preset := range workload.Presets() {
		preset := preset
		t.Run(preset.Name, func(t *testing.T) {
			e, err := lsm.Open(lsm.Options{Dir: t.TempDir(), DisableWAL: true})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			data := preset.Generate(4000, 11)
			if err := workload.Load(e, preset.Name, data, workload.LoadOptions{
				ChunkSize:       250,
				OverlapFraction: 0.3,
				Seed:            11,
			}); err != nil {
				t.Fatal(err)
			}
			if err := workload.ApplyDeletes(e, preset.Name, data, workload.DeleteOptions{
				Count:       6,
				RangeMillis: (data[len(data)-1].T - data[0].T) / 50,
				Seed:        11,
			}); err != nil {
				t.Fatal(err)
			}
			tqs, tqe := data[0].T, data[len(data)-1].T+1
			for _, c := range canvases {
				t.Run(fmt.Sprintf("%dx%d", c.w, c.h), func(t *testing.T) {
					q := m4.Query{Tqs: tqs, Tqe: tqe, W: c.w}
					snap, err := e.Snapshot(preset.Name, q.Range())
					if err != nil {
						t.Fatal(err)
					}
					full, err := mergeread.Merge(snap, q.Range())
					if err != nil {
						t.Fatal(err)
					}
					snap, err = e.Snapshot(preset.Name, q.Range())
					if err != nil {
						t.Fatal(err)
					}
					aggs, err := m4lsm.Compute(snap, q)
					if err != nil {
						t.Fatal(err)
					}
					reduced := m4.Points(aggs)
					vp := viz.ViewportFor(series.Series(full), tqs, tqe)
					a := viz.Rasterize(series.Series(full), vp, c.w, c.h)
					b := viz.Rasterize(reduced, vp, c.w, c.h)
					if d := viz.Diff(a, b); d != 0 {
						t.Errorf("%d of %d lit pixels differ between full and M4-reduced render",
							d, a.Count())
					}
					if a.Count() == 0 {
						t.Error("blank canvas: workload produced no in-range points")
					}
				})
			}
		})
	}
}
