package m4lsm

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"m4lsm/internal/m4"
	"m4lsm/internal/storage"
	"m4lsm/internal/testutil"
)

// snapshotAt rebuilds the identical random state for a seed, so sequential
// and parallel runs see independent snapshots (fresh chunk states, fresh
// stats) over byte-identical storage.
func snapshotAt(seed int64) *storage.Snapshot {
	rng := rand.New(rand.NewSource(seed))
	return testutil.RandomSnapshot(rng, testutil.DefaultGenConfig)
}

// TestParallelMatchesSequential is the concurrency equivalence check: on
// randomized out-of-order/overwrite/delete states, ComputeContext must
// return byte-identical aggregates at every parallelism, and the
// singleflight load gate must keep ChunksLoaded independent of the worker
// count. Windows over the pyramid that are not cell-aligned split every
// span into boundary fragments around its cells, whose chunk lists run on
// the pool like any span's. Run under -race this also exercises the
// chunkState sharing.
func TestParallelMatchesSequential(t *testing.T) {
	type input struct {
		name string
		snap func() *storage.Snapshot
		q    m4.Query
	}
	var inputs []input
	queryRng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		seed := int64(iter)
		horizon := testutil.DefaultGenConfig.TimeHorizon
		tqs := queryRng.Int63n(horizon)
		tqe := tqs + 1 + queryRng.Int63n(horizon-tqs)
		q := m4.Query{Tqs: tqs, Tqe: tqe, W: 1 + queryRng.Intn(12)}
		inputs = append(inputs, input{fmt.Sprintf("seed %d", seed), func() *storage.Snapshot { return snapshotAt(seed) }, q})
	}
	e := alignedEngine(t)
	for _, q := range []m4.Query{
		{Tqs: 37, Tqe: alignedPoints - 91, W: 500},
		{Tqs: 1000, Tqe: 70001, W: 37},
		{Tqs: 5, Tqe: 1<<16 + 3, W: 64},
	} {
		inputs = append(inputs, input{fmt.Sprintf("fragments %+v", q), func() *storage.Snapshot { return alignedSnapshot(t, e, q) }, q})
	}

	for _, in := range inputs {
		q := in.q
		ref := in.snap()
		want, err := ComputeContext(context.Background(), ref, q, Options{Parallelism: 1})
		if err != nil {
			t.Fatalf("%s: sequential: %v", in.name, err)
		}
		wantLoads := ref.Stats.Load().ChunksLoaded

		for _, par := range []int{2, 4, 8} {
			snap := in.snap()
			got, err := ComputeContext(context.Background(), snap, q, Options{Parallelism: par})
			if err != nil {
				t.Fatalf("%s par %d: %v", in.name, par, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s par %d: aggregates diverge from sequential\nq=%+v\nseq: %v\npar: %v",
					in.name, par, q, want, got)
			}
			if loads := snap.Stats.Load().ChunksLoaded; loads != wantLoads {
				t.Fatalf("%s par %d: ChunksLoaded = %d, sequential loaded %d (singleflight must dedupe)",
					in.name, par, loads, wantLoads)
			}
		}
	}
}

// TestParallelEagerLoad checks the equivalence holds with EagerLoad, where
// every task materializes every chunk and the load gate is hit hardest.
func TestParallelEagerLoad(t *testing.T) {
	for iter := 0; iter < 50; iter++ {
		seed := int64(1000 + iter)
		horizon := testutil.DefaultGenConfig.TimeHorizon
		q := m4.Query{Tqs: 0, Tqe: horizon, W: 8}

		ref := snapshotAt(seed)
		want, err := ComputeContext(context.Background(), ref, q, Options{EagerLoad: true, Parallelism: 1})
		if err != nil {
			t.Fatalf("seed %d: sequential: %v", seed, err)
		}
		wantLoads := ref.Stats.Load().ChunksLoaded

		snap := snapshotAt(seed)
		got, err := ComputeContext(context.Background(), snap, q, Options{EagerLoad: true, Parallelism: 8})
		if err != nil {
			t.Fatalf("seed %d: parallel: %v", seed, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: eager aggregates diverge\nseq: %v\npar: %v", seed, want, got)
		}
		if loads := snap.Stats.Load().ChunksLoaded; loads != wantLoads {
			t.Fatalf("seed %d: eager ChunksLoaded = %d, want %d", seed, loads, wantLoads)
		}
	}
}
