package difftest

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"m4lsm/internal/lsm"
	"m4lsm/internal/m4"
	"m4lsm/internal/m4lsm"
	"m4lsm/internal/mergeread"
	"m4lsm/internal/reprops"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
	"m4lsm/internal/viz"
	"m4lsm/internal/workload"
)

// TestDifferentialRepr is the representation-equivalence property test:
// seeded workloads with value-injective data, every query answered by
// every representation operator through the LSM path (pyramid on and off)
// and the UDF path, all bit-for-bit equal to the reference reduction over
// the oracle. A failure prints the seed; reproduce with
// difftest.RunRepr(seed, dir). The name extends TestDifferential so `make
// difftest` picks it up through the existing run filter.
func TestDifferentialRepr(t *testing.T) {
	n := 250
	if testing.Short() {
		n = 60
	}
	var pyramidSpans atomic.Int64
	seed, err := forSeeds(n, func(seed int64) error {
		c, err := GenerateRepr(seed, t.TempDir())
		if err != nil {
			return err
		}
		defer c.Close()
		err = c.CheckRepr()
		pyramidSpans.Add(c.PyramidSpans)
		return err
	})
	if err != nil {
		t.Fatalf("repr mismatch at seed %d (reproduce: difftest.RunRepr(%d, dir)): %v", seed, seed, err)
	}
	if pyramidSpans.Load() == 0 {
		t.Fatal("pyramid answered zero spans across the repr differential run; pyramid-on checks were vacuous")
	}
	t.Logf("pyramid answered %d spans across %d cases", pyramidSpans.Load(), n)
}

// TestTieFreeValueInjective pins the property CheckRepr's exactness rests
// on: distinct timestamps never map to the same value, at any overwrite
// generation.
func TestTieFreeValueInjective(t *testing.T) {
	const tMax = 999
	v := tieFreeValue(tMax)
	seen := map[float64]int64{}
	for round := 0; round < 3; round++ {
		for ts := int64(0); ts < tMax; ts++ {
			val := v(nil, ts)
			if prev, ok := seen[val]; ok && prev != ts {
				t.Fatalf("value %v produced by both t=%d and t=%d", val, prev, ts)
			}
			seen[val] = ts
		}
	}
}

// TestGoldenPixelEquivalenceRepr is the per-operator golden pixel test at
// dashboard canvas shapes: on overlapped, overwritten, deleted preset
// workloads, the engine's reduction must rasterize to exactly the pixels
// of the reference reduction over the merged series.
//
// LTTB runs on every preset — it is a pure function of the merged series,
// so engine and reference see identical inputs. The MinMax family is
// restricted to the continuous-valued presets (MF03, RcvTime): BallSpeed
// clamps to exact 0.0 and KOB emits quantized setpoints, and on a value
// tie the engine's candidate pruning may pick a different (equally
// extremal, equally valid) representative timestamp than the streaming
// reference, moving a pixel without being wrong. Exactness under ties is
// not a guarantee the operator makes; TestDifferentialRepr covers the
// tie-free exactness claim exhaustively.
func TestGoldenPixelEquivalenceRepr(t *testing.T) {
	continuous := map[string]bool{"MF03": true, "RcvTime": true}
	canvases := []struct{ w, h int }{
		{200, 100},
		{480, 270},
	}
	specs := []reprops.Spec{
		{Kind: reprops.KindMinMax},
		{Kind: reprops.KindLTTB},
		{Kind: reprops.KindMinMaxLTTB, Ratio: 4},
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
			for _, spec := range specs {
				if spec.Kind != reprops.KindLTTB && !continuous[preset.Name] {
					continue
				}
				for _, c := range canvases {
					t.Run(fmt.Sprintf("%s-%dx%d", spec, c.w, c.h), func(t *testing.T) {
						q := m4.Query{Tqs: tqs, Tqe: tqe, W: c.w}
						snap, err := e.Snapshot(preset.Name, q.Range())
						if err != nil {
							t.Fatal(err)
						}
						full, err := mergeread.Merge(snap, q.Range())
						if err != nil {
							t.Fatal(err)
						}
						want, err := reprops.Reduce(spec, q, series.Series(full))
						if err != nil {
							t.Fatal(err)
						}
						snap, err = e.Snapshot(preset.Name, q.Range())
						if err != nil {
							t.Fatal(err)
						}
						outs, err := m4lsm.ReduceMultiContext(context.Background(), []*storage.Snapshot{snap}, q, spec, m4lsm.Options{})
						if err != nil {
							t.Fatal(err)
						}
						got := outs[0]
						vp := viz.ViewportFor(series.Series(full), tqs, tqe)
						a := viz.Rasterize(want, vp, c.w, c.h)
						b := viz.Rasterize(got, vp, c.w, c.h)
						if d := viz.Diff(a, b); d != 0 {
							t.Errorf("%d of %d lit pixels differ between engine and reference %s render",
								d, a.Count(), spec)
						}
						if b.Count() == 0 {
							t.Error("blank canvas: reduction produced no in-range points")
						}
					})
				}
			}
		})
	}
}
