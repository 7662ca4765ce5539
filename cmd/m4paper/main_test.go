package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestEveryExperimentPrints(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-exp", "all", "-scale", "0.001", "-reps", "1", "-datasets", "kob"}, &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	for _, head := range []string{"Table 2", "Figure 1:", "Figures 8/9", "Figure 10", "Figure 11",
		"Figure 12", "Figure 13", "Figure 14", "Ablations"} {
		if !strings.Contains(out.String(), "== "+head) {
			t.Errorf("no %q block in the output", head)
		}
	}
}

// A name that matches no preset used to be dropped, so `-datasets MF03,KOBB`
// ran MF03 alone without a word.
func TestUnknownDatasetIsAnError(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-exp", "table2", "-datasets", "MF03,NOPE"}, &out, &errw); code == 0 {
		t.Fatalf("exit 0 for an unknown dataset; stdout:\n%s", out.String())
	}
	for _, want := range []string{`"NOPE"`, "BallSpeed, MF03, KOB, RcvTime"} {
		if !strings.Contains(errw.String(), want) {
			t.Errorf("stderr %q does not mention %s", errw.String(), want)
		}
	}
}

// A failing run must still flush both profiles: main used to os.Exit past
// the defers that stop the CPU profile and write the heap profile.
func TestProfilesSurviveAFailingRun(t *testing.T) {
	dir := t.TempDir()
	cpu, heap := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "heap.pprof")
	var out, errw bytes.Buffer
	if code := run([]string{"-exp", "nope", "-cpuprofile", cpu, "-memprofile", heap}, &out, &errw); code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errw.String())
	}
	for _, path := range []string{cpu, heap} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: missing or empty after a failing run (err %v)", filepath.Base(path), err)
		}
	}
}
