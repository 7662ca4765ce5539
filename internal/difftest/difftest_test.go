package difftest

import (
	"sync"
	"sync/atomic"
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
	var pyramidSpans atomic.Int64
	seed, err := forSeeds(n, func(seed int64) error {
		c, err := Generate(seed, t.TempDir())
		if err != nil {
			return err
		}
		defer c.Close()
		err = c.Check()
		pyramidSpans.Add(c.PyramidSpans)
		return err
	})
	if err != nil {
		t.Fatalf("differential mismatch at seed %d (reproduce: difftest.Run(%d, dir)): %v", seed, seed, err)
	}
	if pyramidSpans.Load() == 0 {
		t.Fatal("pyramid answered zero spans across the whole differential run; pyramid checks were vacuous")
	}
	t.Logf("pyramid answered %d spans across %d cases", pyramidSpans.Load(), n)
}

// forSeeds runs check for the seeds 1 to n on a few workers: the cases are
// independent and spend much of their time waiting on the file system.
// After a failure no new seed starts, and it returns the smallest failing
// seed with its error.
func forSeeds(n int, check func(seed int64) error) (int64, error) {
	const workers = 4
	var (
		next     atomic.Int64
		mu       sync.Mutex
		failSeed int64
		failErr  error
		wg       sync.WaitGroup
	)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := next.Add(1); seed <= int64(n); seed = next.Add(1) {
				err := check(seed)
				mu.Lock()
				if err != nil && (failErr == nil || seed < failSeed) {
					failSeed, failErr = seed, err
				}
				stop := failErr != nil
				mu.Unlock()
				if stop {
					return
				}
			}
		}()
	}
	wg.Wait()
	return failSeed, failErr
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
