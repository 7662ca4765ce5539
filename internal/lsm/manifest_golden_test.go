package lsm

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"m4lsm/internal/pyramid"
	"m4lsm/internal/series"
)

// goldenManifestWorkload is the fixed workload behind testdata/parent-
// 8f81d1d/pyramid.pyr: two series flushed (value ties, negative
// timestamps), a cell-aligned range delete, a close, and a reopen that
// overwrites and extends both series before the final close.
func goldenManifestWorkload(dir string) error {
	e, err := Open(Options{Dir: dir})
	if err != nil {
		return err
	}
	a := make(series.Series, 48)
	for i := range a {
		a[i] = series.Point{T: int64(i) * 7, V: float64(i % 5)}
	}
	b := make(series.Series, 24)
	for i := range b {
		b[i] = series.Point{T: -500 + int64(i)*13, V: float64((i*37)%101) - 50}
	}
	if err := e.WriteBatch(BatchEntry{SeriesID: "root.a", Points: a}, BatchEntry{SeriesID: "root.b", Points: b}); err != nil {
		return err
	}
	if err := e.Flush(); err != nil {
		return err
	}
	// [64, 127] closed is the half-open [64, 128): cell-aligned.
	if err := e.Delete("root.a", 64, 127); err != nil {
		return err
	}
	if err := e.Close(); err != nil {
		return err
	}
	e, err = Open(Options{Dir: dir})
	if err != nil {
		return err
	}
	if err := e.Write("root.a", series.Point{T: 700, V: -3}, series.Point{T: 7, V: 99}); err != nil {
		return err
	}
	if err := e.Write("root.b", series.Point{T: -500, V: 1e9}); err != nil {
		return err
	}
	return e.Close()
}

// TestManifestGolden pins the pyramid manifest's bytes across the move of
// the pyramid into its own package: testdata/parent-8f81d1d/pyramid.pyr was
// written by commit 8f81d1d running goldenManifestWorkload. It must decode
// and re-encode byte-identically, and the same workload must write the
// same bytes today.
func TestManifestGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "parent-8f81d1d", "pyramid.pyr"))
	if err != nil {
		t.Fatal(err)
	}
	p, wm, err := pyramid.Decode(golden)
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Series != 2 || st.Cells == 0 {
		t.Fatalf("golden manifest restores %+v, want 2 series with cells", st)
	}
	if again := p.Encode(wm); !bytes.Equal(again, golden) {
		t.Fatalf("re-encoding the golden manifest gives %d bytes that differ from the parent's %d", len(again), len(golden))
	}
	dir := t.TempDir()
	if err := goldenManifestWorkload(dir); err != nil {
		t.Fatal(err)
	}
	now, err := os.ReadFile(filepath.Join(dir, pyramidFileName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(now, golden) {
		t.Fatalf("the golden workload writes a %d-byte manifest that differs from the parent's %d bytes", len(now), len(golden))
	}
}
