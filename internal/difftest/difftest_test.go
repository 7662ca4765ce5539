package difftest

import (
	"testing"

	"m4lsm/internal/series"
)

// TestDifferential is the property test: randomized workloads against the
// engine and the in-memory oracle, every M4 query answered four ways
// (M4-LSM with and without the rollup pyramid, M4-UDF, reference scan)
// plus the batched multi-series path and a pixel-equivalence render, all
// required to agree. A failure prints the seed; reproduce one case with
// difftest.Run(seed, dir). Across the whole run the pyramid must have
// answered at least one span, or every pyramid comparison was vacuous.
func TestDifferential(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = 200
	}
	var pyramidSpans int64
	for i := 0; i < n; i++ {
		seed := int64(i + 1)
		c, err := Generate(seed, t.TempDir())
		if err != nil {
			t.Fatalf("differential mismatch at seed %d (reproduce: difftest.Run(%d, dir)): %v", seed, seed, err)
		}
		err = c.Check()
		c.Close()
		if err != nil {
			t.Fatalf("differential mismatch at seed %d (reproduce: difftest.Run(%d, dir)): %v", seed, seed, err)
		}
		pyramidSpans += c.PyramidSpans
	}
	if pyramidSpans == 0 {
		t.Fatal("pyramid answered zero spans across the whole differential run; pyramid checks were vacuous")
	}
	t.Logf("pyramid answered %d spans across %d cases", pyramidSpans, n)
}

// TestOracleSemantics pins the oracle itself: latest write wins and deletes
// cover a closed range.
func TestOracleSemantics(t *testing.T) {
	o := Oracle{}
	o.write("s", series.Point{T: 5, V: 1})
	o.write("s", series.Point{T: 3, V: 2})
	o.write("s", series.Point{T: 5, V: 9}) // overwrite
	o.write("s", series.Point{T: 8, V: 4})
	o.delete("s", 8, 10)
	m := o.Merged("s")
	if len(m) != 2 || m[0].T != 3 || m[1].T != 5 || m[1].V != 9 {
		t.Fatalf("merged = %v", m)
	}
	if _, ok := o["s"]; len(o) != 1 || !ok {
		t.Fatalf("series = %v", o)
	}
}
