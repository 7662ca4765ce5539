package lsm

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"m4lsm/internal/pyramid"
	"m4lsm/internal/series"
)

// goldenManifestOps is the fixed workload behind the golden manifests, in
// two sessions: two series written in one batch (value ties, negative
// timestamps) and flushed, then a cell-aligned range delete; after a reopen,
// writes that overwrite and extend both series, and a third series wide
// enough that its base cells hold four points each (commit 8f81d1d's
// manifest predates the third series).
func goldenManifestOps() [2][]tortureOp {
	a := make(series.Series, 48)
	for i := range a {
		a[i] = series.Point{T: int64(i) * 7, V: float64(i % 5)}
	}
	b := make(series.Series, 24)
	for i := range b {
		b[i] = series.Point{T: -500 + int64(i)*13, V: float64((i*37)%101) - 50}
	}
	c := make(series.Series, 101)
	for i := range c {
		c[i] = series.Point{T: int64(i), V: float64(i*i%7) - 3}
	}
	c[100].T = 40000 // the base level is 4 ticks wide
	return [2][]tortureOp{{
		{kind: 'g', entries: []BatchEntry{{SeriesID: "root.a", Points: a}, {SeriesID: "root.b", Points: b}}},
		{kind: 'f'},
		// [64, 127] closed is the half-open [64, 128): cell-aligned.
		{kind: 'd', id: "root.a", start: 64, end: 127},
	}, {
		{kind: 'w', id: "root.a", pts: pts(700, -3, 7, 99)},
		{kind: 'w', id: "root.b", pts: pts(-500, 1e9)},
		{kind: 'w', id: "root.c", pts: c},
	}}
}

// goldenManifestWorkload runs goldenManifestOps in dir, each session
// between an Open and a Close.
func goldenManifestWorkload(dir string) error {
	for _, session := range goldenManifestOps() {
		e, err := Open(Options{Dir: dir})
		if err != nil {
			return err
		}
		for _, op := range session {
			if err := execOp(e, op); err != nil {
				return err
			}
		}
		if err := e.Close(); err != nil {
			return err
		}
	}
	return nil
}

// TestManifestGolden pins the pyramid manifest's bytes:
// testdata/manifest-v2/pyramid.pyr was written by the format-2 encoder
// running goldenManifestWorkload. It must decode and re-encode
// byte-identically, and the same workload must write the same bytes today.
// (testdata/parent-8f81d1d/pyramid.pyr is the same workload's format-1
// manifest, which TestPyramidReopenReshard requires to be refused.)
func TestManifestGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "manifest-v2", "pyramid.pyr"))
	if err != nil {
		t.Fatal(err)
	}
	p, wm, err := pyramid.Decode(golden)
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Series != 3 || st.Cells == 0 {
		t.Fatalf("golden manifest restores %+v, want 3 series with cells", st)
	}
	for _, id := range []string{"root.a", "root.b", "root.c"} {
		if err := p.CheckInvariants(id); err != nil {
			t.Fatal(err)
		}
	}
	if again := p.Encode(wm); !bytes.Equal(again, golden) {
		t.Fatalf("re-encoding the golden manifest gives %d bytes that differ from the golden %d", len(again), len(golden))
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
		t.Fatalf("the golden workload writes a %d-byte manifest that differs from the golden %d bytes", len(now), len(golden))
	}
}
