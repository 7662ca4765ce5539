// Package integration exercises the whole stack end-to-end through the
// file-backed engine: random workloads of out-of-order writes, overwrites,
// range deletes, flushes and compactions, checked span-by-span against an
// in-memory oracle, plus crash-recovery loops and concurrent access.
package integration

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"m4lsm/internal/lsm"
	"m4lsm/internal/m4"
	"m4lsm/internal/m4lsm"
	"m4lsm/internal/m4udf"
	"m4lsm/internal/mergeread"
	"m4lsm/internal/series"
)

// oracle is the in-memory ground truth: a map applying the same overwrite
// and delete semantics as the engine.
type oracle struct {
	points map[int64]float64
}

func newOracle() *oracle { return &oracle{points: map[int64]float64{}} }

func (o *oracle) write(pts []series.Point) {
	for _, p := range pts {
		o.points[p.T] = p.V
	}
}

func (o *oracle) delete(start, end int64) {
	for t := range o.points {
		if t >= start && t <= end {
			delete(o.points, t)
		}
	}
}

func (o *oracle) series(r series.TimeRange) series.Series {
	var out series.Series
	for t, v := range o.points {
		if r.Contains(t) {
			out = append(out, series.Point{T: t, V: v})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}

// randomBatch produces writes with colliding timestamps so overwrites are
// frequent.
func randomBatch(rng *rand.Rand, horizon int64) []series.Point {
	n := 1 + rng.Intn(20)
	batch := make([]series.Point, 0, n)
	seen := map[int64]bool{}
	for len(batch) < n {
		t := rng.Int63n(horizon)
		if seen[t] {
			continue
		}
		seen[t] = true
		batch = append(batch, series.Point{T: t, V: float64(rng.Intn(100))})
	}
	return batch
}

func TestRandomWorkloadEndToEnd(t *testing.T) {
	const horizon = 2000
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			e, err := lsm.Open(lsm.Options{Dir: t.TempDir(), FlushThreshold: 32})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			o := newOracle()
			for op := 0; op < 150; op++ {
				switch rng.Intn(10) {
				case 0:
					if err := e.Flush(); err != nil {
						t.Fatal(err)
					}
				case 1:
					start := rng.Int63n(horizon)
					end := start + rng.Int63n(horizon/8)
					if err := e.Delete("s", start, end); err != nil {
						t.Fatal(err)
					}
					o.delete(start, end)
				case 2:
					if err := e.Compact(); err != nil {
						t.Fatal(err)
					}
				default:
					batch := randomBatch(rng, horizon)
					if err := e.Write("s", batch...); err != nil {
						t.Fatal(err)
					}
					o.write(batch)
				}
				if op%25 != 24 {
					continue
				}
				// Check merged contents and both M4 operators.
				r := series.TimeRange{Start: rng.Int63n(horizon / 2), End: horizon/2 + rng.Int63n(horizon/2) + 1}
				snap, err := e.Snapshot("s", r)
				if err != nil {
					t.Fatal(err)
				}
				got, err := mergeread.Merge(snap, r)
				if err != nil {
					t.Fatal(err)
				}
				want := o.series(r)
				if len(got) != len(want) {
					t.Fatalf("seed %d op %d: merged %d points, oracle %d", seed, op, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("seed %d op %d: point %d: %v vs %v", seed, op, i, got[i], want[i])
					}
				}
				q := m4.Query{Tqs: r.Start, Tqe: r.End, W: 1 + rng.Intn(16)}
				wantAggs, err := m4.ComputeSeries(q, want)
				if err != nil {
					t.Fatal(err)
				}
				snap, _ = e.Snapshot("s", r)
				lsmAggs, err := m4lsm.Compute(snap, q)
				if err != nil {
					t.Fatal(err)
				}
				snap, _ = e.Snapshot("s", r)
				udfAggs, err := m4udf.Compute(snap, q)
				if err != nil {
					t.Fatal(err)
				}
				for i := range wantAggs {
					if !m4.Equivalent(lsmAggs[i], wantAggs[i]) {
						t.Fatalf("seed %d op %d span %d: lsm %v, oracle %v", seed, op, i, lsmAggs[i], wantAggs[i])
					}
					if !m4.Equivalent(udfAggs[i], wantAggs[i]) {
						t.Fatalf("seed %d op %d span %d: udf %v, oracle %v", seed, op, i, udfAggs[i], wantAggs[i])
					}
				}
			}
		})
	}
}

// TestCrashRecoveryLoop interleaves work with simulated crashes (Kill,
// then reopening the directory without Close) and verifies no
// acknowledged write or delete is lost.
func TestCrashRecoveryLoop(t *testing.T) {
	const horizon = 500
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(99))
	o := newOracle()
	for round := 0; round < 8; round++ {
		e, err := lsm.Open(lsm.Options{Dir: dir, FlushThreshold: 16, SyncWAL: true})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for op := 0; op < 30; op++ {
			if rng.Intn(8) == 0 {
				start := rng.Int63n(horizon)
				end := start + rng.Int63n(50)
				if err := e.Delete("s", start, end); err != nil {
					t.Fatal(err)
				}
				o.delete(start, end)
				continue
			}
			batch := randomBatch(rng, horizon)
			if err := e.Write("s", batch...); err != nil {
				t.Fatal(err)
			}
			o.write(batch)
		}
		// Crash: kill the engine, without Close or Flush. The next Open
		// must recover from WAL + files. Kill releases the directory's
		// lock, as a crashed process's exit does.
		e.Kill()
		r := series.TimeRange{Start: 0, End: horizon}
		e2, err := lsm.Open(lsm.Options{Dir: dir, FlushThreshold: 16, SyncWAL: true})
		if err != nil {
			t.Fatalf("round %d reopen: %v", round, err)
		}
		snap, err := e2.Snapshot("s", r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := mergeread.Merge(snap, r)
		if err != nil {
			t.Fatal(err)
		}
		want := o.series(r)
		if len(got) != len(want) {
			t.Fatalf("round %d: recovered %d points, oracle %d", round, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("round %d: point %d: %v vs %v", round, i, got[i], want[i])
			}
		}
		e2.Close()
	}
}

// TestConcurrentReadersAndWriters checks that queries race-free coexist
// with writes, deletes, flushes and compactions. Results are only checked
// for internal consistency (the data is in flux); run with -race.
func TestConcurrentReadersAndWriters(t *testing.T) {
	e, err := lsm.Open(lsm.Options{Dir: t.TempDir(), FlushThreshold: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const horizon = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := e.Write("s", randomBatch(rng, horizon)...); err != nil {
					t.Error(err)
					return
				}
				if rng.Intn(20) == 0 {
					start := rng.Int63n(horizon)
					if err := e.Delete("s", start, start+100); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%10 == 9 {
				if err := e.Compact(); err != nil {
					t.Error(err)
					return
				}
			} else if err := e.Flush(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		q := m4.Query{Tqs: 0, Tqe: horizon, W: 1 + rng.Intn(20)}
		snap, err := e.Snapshot("s", q.Range())
		if err != nil {
			t.Fatal(err)
		}
		aggs, err := m4lsm.Compute(snap, q)
		if err != nil {
			t.Fatal(err)
		}
		for si, a := range aggs {
			if a.Empty {
				continue
			}
			span := q.Span(si)
			if !span.Contains(a.First.T) || !span.Contains(a.Last.T) ||
				!span.Contains(a.Bottom.T) || !span.Contains(a.Top.T) {
				t.Fatalf("span %d %v: aggregate outside span: %v", si, span, a)
			}
			if a.First.T > a.Last.T || a.Bottom.V > a.Top.V {
				t.Fatalf("span %d: inconsistent aggregate %v", si, a)
			}
		}
	}
	close(stop)
	wg.Wait()
}
