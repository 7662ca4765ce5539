package exper

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"m4lsm/internal/storage"
)

var update = flag.Bool("update", false, "rewrite testdata/paper_counters.golden from this run")

// sweepRuns holds each sweep's measurements at tiny(), so that the shape
// tests and the counter golden read one run. Tests in this package run one
// at a time, so the map needs no lock.
var sweepRuns = map[string][]Measurement{}

// runSweep returns the named sweep's measurements at tiny(), running it on
// first use.
func runSweep(t *testing.T, name string, run func(Config) ([]Measurement, error)) []Measurement {
	t.Helper()
	if ms, ok := sweepRuns[name]; ok {
		return ms
	}
	ms, err := run(tiny())
	if err != nil {
		t.Fatal(err)
	}
	sweepRuns[name] = ms
	return ms
}

// counters prints the cost counters the paper's figures are read from.
func counters(s storage.Stats) string {
	return fmt.Sprintf("loads=%d timeLoads=%d boundaryProbes=%d decoded=%d pruned=%d",
		s.ChunksLoaded, s.TimeBlocksLoaded, s.BoundaryProbes, s.PointsDecoded, s.ChunksPruned)
}

// TestPaperCountersGolden pins the reproduction: every table `m4paper -exp
// all` prints that carries a count (Table 2, Figures 10–14, the ablations)
// is run at tiny()'s fixed scale and seed, and each row's counters, both
// operators' for the figures, must equal testdata/paper_counters.golden
// exactly. Queries run on one goroutine, so nothing but the code moves a
// counter; a change that does regenerates the golden with
// `go test ./internal/exper -run TestPaperCountersGolden -update` and says
// which rows moved and why.
func TestPaperCountersGolden(t *testing.T) {
	cfg := tiny()
	var b strings.Builder
	for _, r := range RunTable2(cfg) {
		fmt.Fprintf(&b, "table2 %s points=%d spanMillis=%d\n", r.Dataset, r.Points, r.SpanMillis)
	}
	for _, sw := range []struct {
		name string
		run  func(Config) ([]Measurement, error)
	}{{"fig10", RunFig10}, {"fig11", RunFig11}, {"fig12", RunFig12}, {"fig13", RunFig13}, {"fig14", RunFig14}} {
		for _, m := range runSweep(t, sw.name, sw.run) {
			fmt.Fprintf(&b, "%s %s %s=%s udf: %s lsm: %s\n", sw.name, m.Dataset, m.Param, trimFloat(m.X), counters(m.UDFStats), counters(m.LSMStats))
		}
	}
	rows, err := RunAblations(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "ablations %s %q lsm: %s\n", r.Study, r.Variant, counters(r.Stats))
	}

	path := filepath.Join("testdata", "paper_counters.golden")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Errorf("%d rows, the golden has %d", len(got)-1, len(wantLines)-1)
	}
	moved := 0
	for i := range min(len(got), len(wantLines)) {
		if got[i] != wantLines[i] {
			if moved++; moved <= 10 {
				t.Errorf("row %d moved:\n got  %s\n want %s", i+1, got[i], wantLines[i])
			}
		}
	}
	if moved > 10 {
		t.Errorf("... %d rows moved in all", moved)
	}
}
