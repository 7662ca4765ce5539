// Command m4bench regenerates the tables and figures of the paper's
// evaluation section (§4). Each experiment prints one block per dataset
// with the varied parameter against both operators' latency and cost
// counters.
//
// Usage:
//
//	m4bench -exp all                 # every experiment at the default scale
//	m4bench -exp fig10 -scale 0.1    # Figure 10 at 1/10 of paper cardinality
//	m4bench -exp fig12 -markdown     # Markdown tables for EXPERIMENTS.md
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
	var (
		expFlag  = flag.String("exp", "all", "experiment to run: "+strings.Join(exper.ExpNames(), ", ")+" or all")
		scale    = flag.Float64("scale", 0.01, "dataset scale relative to Table 2 cardinalities (1 = paper scale)")
		chunk    = flag.Int("chunk", 1000, "points per chunk (paper: 1000)")
		w        = flag.Int("w", 1000, "time spans for the non-w experiments (paper: 1000)")
		reps     = flag.Int("reps", 3, "repetitions per query; minimum latency reported")
		par      = flag.Int("parallel", 0, "worker goroutines per query (0 = GOMAXPROCS); the scaling experiment sweeps its own values")
		seed     = flag.Int64("seed", 42, "generator seed")
		markdown = flag.Bool("markdown", false, "emit Markdown tables instead of text")
		datasets = flag.String("datasets", "", "comma-separated dataset filter (e.g. MF03,KOB); empty = all")
		faults   = flag.Bool("faults", false, "shorthand for -exp faults (deterministic fault-injection sweep)")
		nSeries  = flag.Int("series", 16, "series count for the shards experiment (concurrent writers / wildcard query width)")
		nClients = flag.Int("clients", 16, "concurrent clients for the overload experiment")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile at exit to this file")
		version  = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("m4bench " + buildinfo.String())
		return
	}
	if *faults {
		*expFlag = "faults"
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "m4bench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "m4bench: cpu profile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	defer writeHeapProfile(*memProf)

	cfg := exper.Config{Scale: *scale, ChunkSize: *chunk, W: *w, Reps: *reps, Seed: *seed, Parallelism: *par}
	if *datasets != "" {
		want := map[string]bool{}
		for _, name := range strings.Split(*datasets, ",") {
			want[strings.ToLower(strings.TrimSpace(name))] = true
		}
		for _, p := range workload.Presets() {
			if want[strings.ToLower(p.Name)] {
				cfg.Datasets = append(cfg.Datasets, p)
			}
		}
		if len(cfg.Datasets) == 0 {
			fmt.Fprintf(os.Stderr, "m4bench: no datasets match %q\n", *datasets)
			os.Exit(1)
		}
	}
	names := []string{*expFlag}
	if *expFlag == "all" {
		names = exper.ExpNames()
	}
	for _, name := range names {
		if err := run(os.Stdout, name, cfg, *markdown, *nSeries, *nClients); err != nil {
			fmt.Fprintf(os.Stderr, "m4bench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
}

// writeHeapProfile dumps an up-to-date heap profile, for `make profile`
// and ad-hoc allocation hunting.
func writeHeapProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "m4bench: heap profile: %v\n", err)
		return
	}
	defer f.Close()
	runtime.GC() // materialize final live-heap state
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintf(os.Stderr, "m4bench: heap profile: %v\n", err)
	}
}

func run(out io.Writer, name string, cfg exper.Config, markdown bool, nSeries, nClients int) error {
	switch name {
	case "overload":
		ms, err := exper.RunOverload(cfg, nClients)
		if err != nil {
			return err
		}
		exper.WriteOverload(out, exper.OverloadTitle(nClients), ms)
		return nil
	case "shards":
		ms, err := exper.RunShards(cfg, nSeries)
		if err != nil {
			return err
		}
		exper.WriteShards(out, exper.ShardsTitle(nSeries), ms)
		return nil
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
	case "ablations":
		rows, err := exper.RunAblations(cfg)
		if err != nil {
			return err
		}
		exper.WriteAblations(out, rows)
		return nil
	case "fig8":
		exper.WriteFig8(out, exper.RunFig8(cfg))
		return nil
	case "pyramid":
		ms, err := exper.RunPyramid(cfg)
		if err != nil {
			return err
		}
		exper.WritePyramid(out, exper.PyramidTitle(), ms)
		return nil
	case "repr":
		rows, err := exper.RunRepr(cfg)
		if err != nil {
			return err
		}
		check, err := exper.RunReprPyramid(cfg)
		if err != nil {
			return err
		}
		exper.WriteRepr(out, exper.ReprTitle(), rows, check)
		return nil
	case "recovery":
		ms, err := exper.RunRecovery(cfg)
		if err != nil {
			return err
		}
		exper.WriteRecovery(out, exper.RecoveryTitle(), ms)
		return nil
	case "selfobs":
		ms, err := exper.RunSelfObs(cfg)
		if err != nil {
			return err
		}
		exper.WriteSelfObs(out, exper.SelfObsTitle(), ms)
		return nil
	case "faults":
		rows, err := exper.RunFaults(cfg, nil)
		if err != nil {
			return err
		}
		exper.WriteFaults(out, rows)
		return nil
	case "fig10", "fig11", "fig12", "fig13", "fig14", "scaling":
		var (
			ms  []exper.Measurement
			err error
		)
		title := exper.Titles[name]
		switch name {
		case "fig10":
			ms, err = exper.RunFig10(cfg)
		case "fig11":
			ms, err = exper.RunFig11(cfg)
		case "fig12":
			ms, err = exper.RunFig12(cfg)
		case "fig13":
			ms, err = exper.RunFig13(cfg)
		case "fig14":
			ms, err = exper.RunFig14(cfg)
		case "scaling":
			ms, err = exper.RunScaling(cfg)
			title = exper.ScalingTitle()
		}
		if err != nil {
			return err
		}
		if markdown {
			exper.WriteMarkdown(out, title, ms)
		} else {
			exper.WriteTable(out, title, ms)
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q (want %s or all)", name, strings.Join(exper.ExpNames(), ", "))
	}
}
