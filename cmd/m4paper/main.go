// Command m4paper regenerates the tables and figures of the paper's
// evaluation section (§4). Each experiment prints one block per dataset
// with the varied parameter against both operators' latency and cost
// counters. Performance of this implementation is measured elsewhere, by
// `bash bench/run.sh`.
//
// Usage:
//
//	m4paper -exp all                 # every experiment at the default scale
//	m4paper -exp fig10 -scale 0.1    # Figure 10 at 1/10 of paper cardinality
//	m4paper -exp fig12 -markdown     # Markdown tables for EXPERIMENTS.md
//
// Scale 1 reproduces paper-scale inputs (10M points for MF03); the default
// 0.01 finishes in seconds on a laptop while preserving every trend.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"m4lsm/internal/buildinfo"
	"m4lsm/internal/exper"
	"m4lsm/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command. It returns the exit status instead of calling
// os.Exit so the profile-closing defers fire on a failing experiment too.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("m4paper", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expFlag  = fs.String("exp", "all", "experiment to run: "+strings.Join(exper.ExpNames(), ", ")+" or all")
		scale    = fs.Float64("scale", 0.01, "dataset scale relative to Table 2 cardinalities (1 = paper scale)")
		chunk    = fs.Int("chunk", 1000, "points per chunk (paper: 1000)")
		w        = fs.Int("w", 1000, "time spans for the non-w experiments (paper: 1000)")
		reps     = fs.Int("reps", 3, "repetitions per query; minimum latency reported")
		seed     = fs.Int64("seed", 42, "generator seed")
		markdown = fs.Bool("markdown", false, "emit Markdown tables instead of text")
		datasets = fs.String("datasets", "", "comma-separated dataset filter (e.g. MF03,KOB); empty = all")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile at exit to this file")
		version  = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, "m4paper "+buildinfo.String())
		return 0
	}
	cfg := exper.Config{Scale: *scale, ChunkSize: *chunk, W: *w, Reps: *reps, Seed: *seed}
	var err error
	if cfg.Datasets, err = selectDatasets(*datasets); err != nil {
		fmt.Fprintf(stderr, "m4paper: %v\n", err)
		return 1
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(stderr, "m4paper: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "m4paper: cpu profile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	defer writeHeapProfile(*memProf, stderr)

	names := []string{*expFlag}
	if *expFlag == "all" {
		names = exper.ExpNames()
	}
	for _, name := range names {
		if err := runExp(stdout, name, cfg, *markdown); err != nil {
			fmt.Fprintf(stderr, "m4paper: %s: %v\n", name, err)
			return 1
		}
	}
	return 0
}

// selectDatasets resolves the -datasets filter against the Table 2
// presets. An empty filter selects nothing (exper then runs all four); a
// name that matches no preset is an error, not a silently smaller run.
func selectDatasets(filter string) ([]workload.Preset, error) {
	if filter == "" {
		return nil, nil
	}
	presets := workload.Presets()
	var out []workload.Preset
next:
	for _, name := range strings.Split(filter, ",") {
		name = strings.TrimSpace(name)
		for _, p := range presets {
			if strings.EqualFold(p.Name, name) {
				out = append(out, p)
				continue next
			}
		}
		valid := make([]string, len(presets))
		for i, p := range presets {
			valid[i] = p.Name
		}
		return nil, fmt.Errorf("unknown dataset %q (want %s)", name, strings.Join(valid, ", "))
	}
	return out, nil
}

// writeHeapProfile dumps an up-to-date heap profile, for `make profile`
// and ad-hoc allocation hunting.
func writeHeapProfile(path string, stderr io.Writer) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(stderr, "m4paper: heap profile: %v\n", err)
		return
	}
	defer f.Close()
	runtime.GC() // materialize final live-heap state
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintf(stderr, "m4paper: heap profile: %v\n", err)
	}
}

// sweeps are the experiments that share the Measurement table shape.
var sweeps = map[string]func(exper.Config) ([]exper.Measurement, error){
	"fig10": exper.RunFig10, "fig11": exper.RunFig11, "fig12": exper.RunFig12,
	"fig13": exper.RunFig13, "fig14": exper.RunFig14,
}

func runExp(out io.Writer, name string, cfg exper.Config, markdown bool) error {
	if sweep, ok := sweeps[name]; ok {
		ms, err := sweep(cfg)
		if err != nil {
			return err
		}
		if markdown {
			exper.WriteMarkdown(out, exper.Titles[name], ms)
		} else {
			exper.WriteTable(out, exper.Titles[name], ms)
		}
		return nil
	}
	switch name {
	case "table2":
		exper.WriteTable2(out, exper.RunTable2(cfg), cfg.Scale)
		return nil
	case "fig1":
		rows, err := exper.RunFig1(cfg)
		if err != nil {
			return err
		}
		exper.WriteFig1(out, rows)
		return nil
	case "fig8":
		rows, err := exper.RunFig8(cfg)
		if err != nil {
			return err
		}
		exper.WriteFig8(out, rows)
		return nil
	case "ablations":
		rows, err := exper.RunAblations(cfg)
		if err != nil {
			return err
		}
		exper.WriteAblations(out, rows)
		return nil
	default:
		return fmt.Errorf("unknown experiment %q (want %s or all)", name, strings.Join(exper.ExpNames(), ", "))
	}
}
