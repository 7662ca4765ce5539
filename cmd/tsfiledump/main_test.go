package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"m4lsm/internal/storage"
	"m4lsm/internal/tsfile"
)

// TestDumpModsOnlyReads: dumping a damaged sidecar lists its whole records
// and counts the torn bytes after them, and leaves the file byte-identical
// with nothing set aside beside it. Opening it as a log would cut the
// damage off and write a .bad file.
func TestDumpModsOnlyReads(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "deletes.mods")
	m, err := tsfile.OpenModLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []storage.Delete{{SeriesID: "s", Version: 3, Start: 10, End: 20}, {SeriesID: "s", Version: 5, Start: 40, End: 40}} {
		if err := m.Append(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 's', 0xde, 0xad, 0xbe, 0xef}); err != nil { // a torn third record
		t.Fatal(err)
	}
	f.Close()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := dumpMods(&out, path); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"2 deletes", "delete{s v3 [10,20]}", "delete{s v5 [40,40]}", "6 torn bytes"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("dump lacks %q:\n%s", want, out.String())
		}
	}
	after, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(after, before) {
		t.Errorf("the dump changed the sidecar: %d bytes before, %d after (%v)", len(before), len(after), err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Errorf("the dump left %d files in the directory, want the sidecar alone", len(ents))
	}
}
