package exper

import (
	"bytes"
	"strings"
	"testing"

	"m4lsm/internal/workload"
)

// tiny returns a configuration small enough for unit tests.
func tiny() Config {
	// Chunk count must be well above W so most chunks are not split by
	// span boundaries (the paper's regime: thousands of chunks, w=1000).
	return Config{
		Scale:     0.002, // KOB ~3.9k pts (78 chunks), MF03 20k pts (400 chunks)
		ChunkSize: 50,
		W:         10,
		Reps:      1,
		Seed:      1,
		Datasets:  []workload.Preset{workload.KOB(), workload.MF03()},
	}
}

func checkMeasurements(t *testing.T, ms []Measurement, param string, perDataset int) {
	t.Helper()
	if len(ms) != 2*perDataset {
		t.Fatalf("measurements = %d, want %d", len(ms), 2*perDataset)
	}
	for _, m := range ms {
		if m.Param != param {
			t.Errorf("param = %q, want %q", m.Param, param)
		}
		if m.UDFLatency <= 0 || m.LSMLatency <= 0 {
			t.Errorf("%s x=%g: zero latency", m.Dataset, m.X)
		}
		if m.UDFStats.ChunksLoaded == 0 {
			t.Errorf("%s x=%g: UDF loaded nothing", m.Dataset, m.X)
		}
		if m.Speedup() <= 0 {
			t.Errorf("bad speedup %v", m.Speedup())
		}
	}
}

func TestRunFig10(t *testing.T) {
	cfg := tiny()
	ms, err := RunFig10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkMeasurements(t, ms, "w", len(Fig10W))
	// Shape: the UDF load count is identical across w (it always loads
	// everything); the LSM load count must not decrease with w.
	for _, group := range groupByDataset(ms) {
		base := group[0].UDFStats.ChunksLoaded
		for _, m := range group {
			if m.UDFStats.ChunksLoaded != base {
				t.Errorf("%s: UDF loads vary with w: %d vs %d", m.Dataset, m.UDFStats.ChunksLoaded, base)
			}
		}
		lo, hi := group[0].LSMStats.ChunksLoaded, group[len(group)-1].LSMStats.ChunksLoaded
		if hi < lo {
			t.Errorf("%s: LSM loads decreased with w: %d -> %d", group[0].Dataset, lo, hi)
		}
		// LSM must load fewer chunks than UDF at the paper's w=1000...
		// at tiny scale use the smallest w instead.
		if group[0].LSMStats.ChunksLoaded >= base {
			t.Errorf("%s: LSM at w=%g loads %d chunks, UDF loads %d; want fewer",
				group[0].Dataset, group[0].X, group[0].LSMStats.ChunksLoaded, base)
		}
	}
}

func TestRunFig11(t *testing.T) {
	ms, err := RunFig11(tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkMeasurements(t, ms, "rangeFraction", len(Fig11Fractions))
	// Shape: UDF loads grow with the range fraction.
	for _, group := range groupByDataset(ms) {
		if group[len(group)-1].UDFStats.ChunksLoaded <= group[0].UDFStats.ChunksLoaded {
			t.Errorf("%s: UDF loads did not grow with range: %d -> %d", group[0].Dataset,
				group[0].UDFStats.ChunksLoaded, group[len(group)-1].UDFStats.ChunksLoaded)
		}
	}
}

func TestRunFig12(t *testing.T) {
	ms, err := RunFig12(tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkMeasurements(t, ms, "overlapPct", len(Fig12Overlaps))
	// Shape: at zero overlap M4-LSM loads almost nothing; the UDF load
	// count stays roughly constant (it loads everything regardless).
	for _, group := range groupByDataset(ms) {
		first := group[0]
		if first.LSMStats.ChunksLoaded > first.UDFStats.ChunksLoaded/2 {
			t.Errorf("%s overlap=0: LSM loads %d of %d chunks; want far fewer",
				first.Dataset, first.LSMStats.ChunksLoaded, first.UDFStats.ChunksLoaded)
		}
	}
}

func TestRunFig13(t *testing.T) {
	ms, err := RunFig13(tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkMeasurements(t, ms, "deletePct", len(Fig13DeletePcts))
}

func TestRunFig14(t *testing.T) {
	ms, err := RunFig14(tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkMeasurements(t, ms, "deleteRangeMult", len(Fig14RangeMultipliers))
}

func TestRunTable2(t *testing.T) {
	rows := RunTable2(Config{Scale: 0.001, Seed: 1})
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	var buf bytes.Buffer
	WriteTable2(&buf, rows, 0.001)
	out := buf.String()
	for _, name := range []string{"BallSpeed", "MF03", "KOB", "RcvTime"} {
		if !strings.Contains(out, name) {
			t.Errorf("missing %s in:\n%s", name, out)
		}
	}
}

func TestRunFig8(t *testing.T) {
	results, err := RunFig8(Config{Scale: 1, ChunkSize: 1000, Seed: 3,
		Datasets: []workload.Preset{workload.KOB()}})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("results = %d", len(results))
	}
	r := results[0]
	if r.Slope <= 0 || len(r.Segments) < 1 || r.ChunkPoints != 1000 {
		t.Errorf("fig8 = %+v", r)
	}
	// KOB's base cadence is 5s; the learned slope must reflect it.
	if r.MedianDelta != 5000 {
		t.Errorf("median delta = %d, want 5000", r.MedianDelta)
	}
	var buf bytes.Buffer
	WriteFig8(&buf, results)
	if !strings.Contains(buf.String(), "KOB") {
		t.Error("missing dataset in fig8 output")
	}
}

func TestWriters(t *testing.T) {
	ms, err := RunFig12(Config{
		Scale: 0.0003, ChunkSize: 100, W: 20, Reps: 1, Seed: 2,
		Datasets: []workload.Preset{workload.RcvTime()},
	})
	if err != nil {
		t.Fatal(err)
	}
	var text, md bytes.Buffer
	WriteTable(&text, "Figure 12", ms)
	WriteMarkdown(&md, "Figure 12", ms)
	if !strings.Contains(text.String(), "RcvTime") || !strings.Contains(text.String(), "overlapPct") {
		t.Errorf("text output:\n%s", text.String())
	}
	if !strings.Contains(md.String(), "| overlapPct |") {
		t.Errorf("markdown output:\n%s", md.String())
	}
}

func TestRunFig1(t *testing.T) {
	rows, err := RunFig1(Config{Scale: 0.002, Seed: 5,
		Datasets: []workload.Preset{workload.KOB()}})
	if err != nil {
		t.Fatal(err)
	}
	// One row per technique: M4, MinMax, LTTB, MinMaxLTTB, Sampling, PAA.
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Technique == "M4" && r.PixelError != 0 {
			t.Errorf("M4 pixel error = %d, want 0", r.PixelError)
		}
		if r.PointsKept <= 0 || r.LitPixels <= 0 {
			t.Errorf("row = %+v", r)
		}
	}
	var buf bytes.Buffer
	WriteFig1(&buf, rows)
	if !strings.Contains(buf.String(), "M4") {
		t.Error("fig1 output missing techniques")
	}
}

// The experiment list is the paper's evaluation and nothing else. A sweep that measures this implementation's speed is a bench/
// workload, not an entry here.
func TestTitlesCoverAllExperiments(t *testing.T) {
	want := "table2 fig1 fig8 fig10 fig11 fig12 fig13 fig14 ablations"
	if got := strings.Join(ExpNames(), " "); got != want {
		t.Errorf("ExpNames() = %q, want %q", got, want)
	}
	if len(Titles) != len(ExpNames()) {
		t.Errorf("%d titles for %d experiments", len(Titles), len(ExpNames()))
	}
	for _, name := range ExpNames() {
		if Titles[name] == "" {
			t.Errorf("missing title for %s", name)
		}
	}
}

func TestRunAblations(t *testing.T) {
	rows, err := RunAblations(Config{
		Scale: 0.002, ChunkSize: 50, W: 10, Reps: 1, Seed: 3,
		Datasets: []workload.Preset{workload.KOB()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6 variants", len(rows))
	}
	byStudy := map[string][]AblationRow{}
	for _, r := range rows {
		if r.Latency <= 0 {
			t.Errorf("%s/%s: zero latency", r.Study, r.Variant)
		}
		byStudy[r.Study] = append(byStudy[r.Study], r)
	}
	// Eager loading must load strictly more chunks than lazy.
	loading := byStudy["loading"]
	if loading[1].Stats.ChunksLoaded <= loading[0].Stats.ChunksLoaded {
		t.Errorf("eager loads %d <= lazy loads %d",
			loading[1].Stats.ChunksLoaded, loading[0].Stats.ChunksLoaded)
	}
	// Full-chunk probing must read more bytes than timestamp-only.
	probe := byStudy["probe-load"]
	if probe[1].Stats.BytesRead <= probe[0].Stats.BytesRead {
		t.Errorf("full probe bytes %d <= partial %d",
			probe[1].Stats.BytesRead, probe[0].Stats.BytesRead)
	}
	var buf bytes.Buffer
	WriteAblations(&buf, rows)
	if !strings.Contains(buf.String(), "step regression") {
		t.Error("ablation output missing variants")
	}
}
