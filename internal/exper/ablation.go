package exper

import (
	"context"
	"fmt"
	"io"
	"time"

	"m4lsm/internal/m4"
	"m4lsm/internal/m4lsm"
	"m4lsm/internal/storage"
	"m4lsm/internal/workload"
)

// AblationRow is one variant of one ablation study.
type AblationRow struct {
	Study   string
	Variant string
	Latency time.Duration
	Stats   storage.Stats
}

// RunAblations measures the operator design choices of DESIGN.md §6 on one
// overlap-and-delete-heavy storage state per dataset: lazy vs. eager
// loading, partial vs. full loads for probes, and step-regression vs.
// binary-search probes.
func RunAblations(cfg Config) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	variants := []struct {
		study, name string
		opts        m4lsm.Options
	}{
		{"loading", "lazy (paper)", m4lsm.Options{}},
		{"loading", "eager", m4lsm.Options{EagerLoad: true}},
		{"probe-load", "timestamps only (paper)", m4lsm.Options{}},
		{"probe-load", "full chunk", m4lsm.Options{DisablePartialLoad: true}},
		{"index", "step regression (paper)", m4lsm.Options{}},
		{"index", "binary search", m4lsm.Options{DisableStepIndex: true}},
	}
	var out []AblationRow
	for di, p := range cfg.Datasets {
		dir, cleanup, err := tempDir(fmt.Sprintf("ablation-%d", di))
		if err != nil {
			return nil, err
		}
		n := int(float64(p.Points) * cfg.Scale)
		nChunks := (n + cfg.ChunkSize - 1) / cfg.ChunkSize
		del := workload.DeleteOptions{
			Count:       nChunks / 5,
			RangeMillis: avgChunkSpan(p, cfg) / 2,
			Seed:        cfg.Seed,
		}
		b, err := build(cfg, p, 0.3, del, dir)
		if err != nil {
			cleanup()
			return nil, err
		}
		q := m4.Query{Tqs: b.tqs, Tqe: b.tqe, W: cfg.W}
		for _, v := range variants {
			best := AblationRow{Study: v.study, Variant: fmt.Sprintf("%s/%s", p.Name, v.name),
				Latency: 1 << 62}
			for rep := 0; rep < cfg.Reps; rep++ {
				snap, err := b.engine.Snapshot(p.Name, q.Range())
				if err != nil {
					b.close()
					cleanup()
					return nil, err
				}
				start := time.Now()
				if _, err := m4lsm.ComputeContext(context.Background(), snap, q, v.opts); err != nil {
					b.close()
					cleanup()
					return nil, err
				}
				if d := time.Since(start); d < best.Latency {
					best.Latency = d
					best.Stats = snap.Stats.Load()
				}
			}
			out = append(out, best)
		}
		b.close()
		cleanup()
	}
	return out, nil
}

// WriteAblations renders the ablation comparison.
func WriteAblations(w io.Writer, rows []AblationRow) {
	fmt.Fprintln(w, "== Ablations: M4-LSM design choices (DESIGN.md §6) ==")
	fmt.Fprintf(w, "%-12s %-34s %12s %10s %10s %10s %10s\n",
		"study", "variant", "latency", "loads", "timeLoads", "bytes", "probes")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-34s %12s %10d %10d %10d %10d\n",
			r.Study, r.Variant, fmtDur(r.Latency),
			r.Stats.ChunksLoaded, r.Stats.TimeBlocksLoaded, r.Stats.BytesRead, r.Stats.IndexProbes)
	}
}
