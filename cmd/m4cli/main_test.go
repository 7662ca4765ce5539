package main

import (
	"bytes"
	"errors"
	"os"
	"strconv"
	"strings"
	"testing"

	"m4lsm/internal/lsm"
	"m4lsm/internal/series"
)

func TestRepl(t *testing.T) {
	e, err := lsm.Open(lsm.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 20; i++ {
		e.Write("root.s", series.Point{T: int64(i * 10), V: float64(i % 4)})
	}
	e.Flush()

	in := strings.NewReader(strings.Join([]string{
		".help",
		".series",
		".info",
		".unknown",
		"SELECT M4(*) FROM root.s WHERE time >= 0 AND time < 200 GROUP BY SPANS(2)",
		"EXPLAIN SELECT M4(*) FROM root.s WHERE time >= 0 AND time < 200 GROUP BY SPANS(2) USING UDF",
		"SELECT garbage",
		"",
		".quit",
	}, "\n"))
	var out bytes.Buffer
	repl(e, in, &out)
	got := out.String()
	for _, want := range []string{
		"commands:",
		"root.s",
		"files=1",
		"unknown command",
		"FirstTime",
		"M4-UDF",
		"error:",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("repl output missing %q:\n%s", want, got)
		}
	}
}

func TestReplEOF(t *testing.T) {
	e, err := lsm.Open(lsm.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var out bytes.Buffer
	repl(e, strings.NewReader(""), &out) // EOF immediately: must return
}

// TestSubcommands drives the one-shot backup/verify/restore/scrub cycle
// end to end through runSubcommand.
func TestSubcommands(t *testing.T) {
	dir := t.TempDir()
	e, err := lsm.Open(lsm.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		e.Write("root.s", series.Point{T: int64(i * 10), V: float64(i % 4)})
	}
	e.Flush()
	e.Close()

	bdir := t.TempDir() + "/bk"
	rdir := t.TempDir() + "/restored"
	if err := runSubcommand(dir, []string{"backup", bdir}); err != nil {
		t.Fatalf("backup: %v", err)
	}
	if err := runSubcommand(dir, []string{"verify", bdir}); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if err := runSubcommand(dir, []string{"restore", bdir, rdir}); err != nil {
		t.Fatalf("restore: %v", err)
	}
	r, err := lsm.Open(lsm.Options{Dir: rdir})
	if err != nil {
		t.Fatal(err)
	}
	ids := r.SeriesIDs()
	r.Close()
	if len(ids) != 1 || ids[0] != "root.s" {
		t.Fatalf("restored series = %v", ids)
	}
	if err := runSubcommand(dir, []string{"scrub"}); err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if err := runSubcommand(dir, []string{"bogus"}); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
	if err := runSubcommand(dir, []string{"backup"}); err == nil {
		t.Fatal("backup without dest accepted")
	}
	// A directory another engine holds is refused, naming the online way.
	live, err := lsm.Open(lsm.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	for _, args := range [][]string{{"backup", t.TempDir() + "/bk2"}, {"scrub"}} {
		err := runSubcommand(dir, args)
		if !errors.Is(err, lsm.ErrLocked) || !strings.Contains(err.Error(), "POST /admin/backup") {
			t.Errorf("%s on a live directory: %v, want ErrLocked naming POST /admin/backup", args[0], err)
		}
	}
}

// TestLoadSubcommand bulk-ingests a CSV through the batched WriteBatch path
// and checks the points landed (small -batch forces several batches).
func TestLoadSubcommand(t *testing.T) {
	dir := t.TempDir()
	csv := t.TempDir() + "/data.csv"
	var b bytes.Buffer
	b.WriteString("time,value\n")
	const n = 100
	for i := 0; i < n; i++ {
		b.WriteString(strconv.Itoa(i*5) + "," + strconv.Itoa(i%9) + "\n")
	}
	if err := os.WriteFile(csv, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runSubcommand(dir, []string{"load", "-sync", "-batch", "16", "root.csv", csv}); err != nil {
		t.Fatalf("load: %v", err)
	}
	e, err := lsm.Open(lsm.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	snap, err := e.Snapshot("root.csv", series.TimeRange{Start: -1 << 40, End: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range snap.Chunks {
		data, err := c.Load(snap.Stats)
		if err != nil {
			t.Fatal(err)
		}
		total += data.Len()
	}
	if total != n {
		t.Fatalf("loaded %d points, want %d", total, n)
	}
	// Usage errors.
	if err := runSubcommand(dir, []string{"load", "root.csv"}); err == nil {
		t.Fatal("load without file accepted")
	}
	if err := runSubcommand(dir, []string{"load", "-batch", "0", "root.csv", csv}); err == nil {
		t.Fatal("non-positive batch accepted")
	}
}
