package exper

import (
	"fmt"
	"runtime"

	"m4lsm/internal/m4"
	"m4lsm/internal/workload"
)

// ScalingParallelism is the worker-count sweep of the parallel-execution
// experiment.
var ScalingParallelism = []int{1, 2, 4, 8}

// RunScaling measures both operators at increasing worker counts on an
// overlap-and-delete-heavy storage state (the shape that makes M4-LSM do
// real verification work). Every measurement's aggregates are cross-checked
// inside measure, so the curve doubles as a parallel-correctness check; the
// chunk-load counters must not move with the worker count (singleflight
// deduplicates loads). Wall-clock speedup is bounded by the host's cores —
// the harness reports GOMAXPROCS next to the curve for that reason.
func RunScaling(cfg Config) ([]Measurement, error) {
	cfg = cfg.withDefaults()
	var out []Measurement
	for di, p := range cfg.Datasets {
		dir, cleanup, err := tempDir(cfg, fmt.Sprintf("scaling-%d", di))
		if err != nil {
			return nil, err
		}
		n := int(float64(p.Points) * cfg.Scale)
		if n < 10 {
			n = 10
		}
		nChunks := (n + cfg.ChunkSize - 1) / cfg.ChunkSize
		del := workload.DeleteOptions{
			Count:       nChunks / 5,
			RangeMillis: avgChunkSpan(p, cfg) / 2,
			Seed:        cfg.Seed,
		}
		b, err := build(cfg, p, 0.3, del, dir, false)
		if err != nil {
			cleanup()
			return nil, err
		}
		var baseLoads int64 = -1
		for _, par := range ScalingParallelism {
			runCfg := cfg
			runCfg.Parallelism = par
			m, err := measure(runCfg, b, p.Name, m4.Query{Tqs: b.tqs, Tqe: b.tqe, W: cfg.W})
			if err != nil {
				b.close()
				cleanup()
				return nil, err
			}
			if baseLoads < 0 {
				baseLoads = m.LSMStats.ChunksLoaded
			} else if m.LSMStats.ChunksLoaded != baseLoads {
				b.close()
				cleanup()
				return nil, fmt.Errorf("%s: chunk loads vary with parallelism: %d at 1 worker, %d at %d workers (singleflight broken)",
					p.Name, baseLoads, m.LSMStats.ChunksLoaded, par)
			}
			m.Param, m.X = "parallelism", float64(par)
			out = append(out, m)
		}
		b.close()
		cleanup()
	}
	return out, nil
}

// ScalingTitle names the experiment including the host's core budget, so a
// flat curve on a small machine reads as a hardware bound rather than a
// regression.
func ScalingTitle() string {
	return fmt.Sprintf("Scaling: workers vs latency (GOMAXPROCS=%d)", runtime.GOMAXPROCS(0))
}
