// Command bench is the one benchmark of this repository: four HTTP
// workloads against an in-process m4server on a loopback listener, measured
// end to end with tracing off, and a second, traced run that replays the
// same seeded requests decomposed at the layer boundaries. See README.md.
//
//	bash bench/run.sh                                  all workloads, both runs, bench/out/result.json
//	bash bench/run.sh -workload paper_cold -trace 0    one workload, end-to-end metrics
//	bash bench/run.sh -workload paper_cold -trace 1    one workload, per-layer metrics
//	bash bench/run.sh -runs 5                          medians and quartiles across five runs
//	bash bench/run.sh -diff old.json new.json          compare two result files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"m4lsm/internal/buildinfo"
)

// benchRoot is the benchmark's directory relative to the repository root,
// where run.sh starts the binary.
const benchRoot = "bench"

func main() {
	var (
		workload = flag.String("workload", "", "run one workload ("+fmt.Sprint(workloadNames())+"); empty runs all four")
		seed     = flag.Int64("seed", 1, "seed of the generated data and request sequences")
		seconds  = flag.Int("seconds", defaultSeconds, "length of the measured window of an untraced run")
		trace    = flag.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run; -1: both")
		runs     = flag.Int("runs", 1, "untraced runs per workload; more than one reports medians and quartiles")
		smoke    = flag.Bool("smoke", false, "tiny data sizes, for a quick check of the harness itself")
		dir      = flag.String("dir", ".bench_build", "scratch directory for the engines' data")
		diff     = flag.Bool("diff", false, "compare two result files given as arguments; exit 1 on a regression")
	)
	flag.Parse()
	if *diff {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-diff wants two result files, got %d arguments", flag.NArg()))
		}
		os.Exit(runDiff(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if _, err := os.Stat(filepath.Join(benchRoot, "main.go")); err != nil {
		fatal(fmt.Errorf("run from the repository root (bash %s/run.sh): %w", benchRoot, err))
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fatal(err)
	}
	defs := workloads
	if *workload != "" {
		def, ok := findWorkload(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q; have %v", *workload, workloadNames()))
		}
		defs = []workloadDef{def}
	}

	report := newReport(*seed, *seconds, *dir)
	ok := true
	var last *runResult
	for _, def := range defs {
		cfg := runConfig{def: def, sc: fullScale[def.name], seed: *seed, seconds: *seconds, dir: *dir}
		if *smoke {
			cfg.sc = smokeScale[def.name]
		}
		if *trace != 1 {
			for i := 0; i < *runs; i++ {
				res, err := runUntraced(cfg)
				if err != nil {
					fatal(err)
				}
				report.add(res)
				last, ok = res, ok && res.Correct
			}
		}
		if *trace != 0 {
			res, err := runTraced(cfg, filepath.Join(benchRoot, "out"))
			if err != nil {
				fatal(err)
			}
			report.add(res)
			last, ok = res, ok && res.Correct
		}
	}
	report.print(os.Stdout)
	if err := report.write(filepath.Join(benchRoot, "out", "result.json")); err != nil {
		fatal(err)
	}
	if *workload != "" && *trace >= 0 {
		// The driver's contract: the last line is one JSON object.
		fmt.Println(driverLine(last))
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// driverLine renders one run the way the benchmark driver reads it.
func driverLine(r *runResult) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	specs := endToEnd
	if r.Traced {
		specs = perLayer
	}
	for _, s := range specs {
		if m, ok := r.get(s.name); ok {
			out.Metrics[m.Name] = value{m.Value, m.Unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	return string(line)
}

// environment records where the numbers were taken, so they are read as
// this sandbox's and not as a device's.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"goVersion"`
	Revision   string  `json:"revision"`
	FsyncP50US float64 `json:"fsyncP50us"`
	FsyncP99US float64 `json:"fsyncP99us"`
}

func probeEnvironment(dir string) environment {
	_, commit := buildinfo.Info()
	env := environment{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Revision: commit}
	env.FsyncP50US, env.FsyncP99US = fsyncProbe(dir, 100)
	return env
}

// fsyncProbe times n small appends each followed by an fsync in dir: the
// floor under every SyncWAL latency this machine can report.
func fsyncProbe(dir string, n int) (p50, p99 float64) {
	f, err := os.CreateTemp(dir, "fsync-probe-")
	if err != nil {
		return 0, 0
	}
	defer os.Remove(f.Name())
	defer f.Close()
	lat := make([]float64, 0, n)
	buf := make([]byte, 512)
	for i := 0; i < n; i++ {
		start := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0, 0
		}
		if err := f.Sync(); err != nil {
			return 0, 0
		}
		lat = append(lat, us(time.Since(start)))
	}
	sort.Float64s(lat)
	return percentile(lat, 0.50), percentile(lat, 0.99)
}
