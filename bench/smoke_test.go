package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

func loadBenchmarkJSON(t *testing.T) *benchmarkFile {
	t.Helper()
	spec, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// BENCHMARK.json and spec.go name the same workloads and metrics.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	spec := loadBenchmarkJSON(t)
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, spec.go has %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != benchRoot {
		t.Errorf("paths = %v, want [%s]", spec.Paths, benchRoot)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in workloads.go", i, w.Name, workloads[i].name)
		}
		if _, ok := fullScale[w.Name]; !ok {
			t.Errorf("workload %q has no full scale", w.Name)
		}
	}
	same := func(kind string, file []boundedMetric, code []metricSpec) {
		if len(file) != len(code) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in spec.go", len(file), kind, len(code))
		}
		for i, m := range file {
			if m.Name != code[i].name || m.Unit != code[i].unit {
				t.Errorf("%s metric %d is %s [%s] in BENCHMARK.json, %s [%s] in spec.go", kind, i, m.Name, m.Unit, code[i].name, code[i].unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
		}
	}
	same("end-to-end", spec.EndToEnd, endToEnd)
	same("per-layer", spec.PerLayer, perLayer)
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// All four workloads run end to end at smoke scale, untraced and traced:
// every oracle check passes and every metric BENCHMARK.json names comes out,
// finite and with its unit.
func TestSmokeAllWorkloads(t *testing.T) {
	spec := loadBenchmarkJSON(t)
	dir := t.TempDir()
	for _, def := range workloads {
		cfg := runConfig{def: def, sc: smokeScale[def.name], seed: 7, seconds: 1, dir: dir}
		for _, traced := range []bool{false, true} {
			var res *runResult
			var err error
			want := spec.EndToEnd
			if traced {
				res, err = runTraced(cfg, filepath.Join(dir, "out"))
				want = spec.PerLayer
			} else {
				res, err = runUntraced(cfg)
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", def.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %v", def.name, traced, res.Correct, res.Attempted, res.Failed, res.Errors)
			}
			for _, m := range want {
				got, ok := res.get(m.Name)
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", def.name, traced, m.Name)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: %s = %v", def.name, m.Name, got.Value)
				case got.Unit != m.Unit:
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", def.name, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v; it must never be 0", def.name, m.Name, got.Value)
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(dir, "out", "trace-"+def.name+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", def.name, err)
				}
				if line := driverLine(res); len(line) < 100 {
					t.Errorf("%s: driver line too short: %s", def.name, line)
				}
			}
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("runs left %d entries in the scratch directory, want only out/", len(entries))
	}
}

// The dealer hands every class out equally often, whatever the seed.
func TestDealerSharesAreExact(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		w := newWriter("s", 4, seed, 10, 1)
		w.lateBack, w.overBack = 10, 10
		for s := range w.series {
			w.inOrder(s, 100)
		}
		for i := 0; i < 300; i++ {
			w.post(i, 2, 4)
		}
		late, over := 0, 0
		for s := range w.series {
			late += len(w.late[s])
			over += len(w.over[s])
		}
		// 300 posts of 2 series each: 30 late posts, 3 overwriting ones.
		if late != 60 || over != 6 {
			t.Errorf("seed %d: %d late and %d overwriting entries, want 60 and 6", seed, late, over)
		}
	}
}
