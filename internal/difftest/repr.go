package difftest

import (
	"context"
	"fmt"
	"math/rand"

	"m4lsm/internal/m4lsm"
	"m4lsm/internal/m4udf"
	"m4lsm/internal/reprops"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
)

// Representation-equivalence mode: the same seeded workloads as the M4
// differential harness, but every query is answered per representation
// operator (M4, MinMax, LTTB, MinMaxLTTB) through the real LSM read path —
// pyramid on and pyramid off — and through the UDF full-scan path, and each
// answer must be bit-for-bit the reference reduction over the oracle's
// merged series.
//
// Bit-for-bit needs value-injective data: when two timestamps in a span
// share the extremal value, the engine's candidate pruning and the
// streaming oracle may legitimately pick different representative
// timestamps (both are m4.Equivalent, neither is wrong). GenerateRepr
// therefore maps each timestamp to a unique value, which makes every
// representative point forced and exact equality the right assertion.

// tieFreeValue returns an injective k→value mapping for positions k in
// [0, tMax) with tMax < 1024. The integer part scrambles value order (so
// extremal points land anywhere in a span, not at its edges) and the
// fractional part k/1024 disambiguates: spacing 1/1024 exceeds the 7e-5
// overwrite offset, so distinct positions can never collide in value.
// Overwrites at the same position cycle through 8 distinct offsets, so
// latest-wins resolution stays observable.
func tieFreeValue(tMax int64) func(*rand.Rand, int64) float64 {
	gen := 0
	return func(_ *rand.Rand, k int64) float64 {
		gen++
		return float64((k*7919)%1024) + float64(k)/1024 + float64(gen%8)*1e-5
	}
}

// GenerateRepr builds the same seeded workload shape as Generate, but with
// the tie-free value mapping required for exact representation equality.
func GenerateRepr(seed int64, dir string) (*Case, error) {
	return generate(seed, dir, true)
}

// reprCheckSpecs is the operator sweep of the equivalence mode; both
// MinMaxLTTB ratios matter because they choose different preselection span
// counts and hence different pyramid/pruning behavior.
func reprCheckSpecs() []reprops.Spec {
	return []reprops.Spec{
		{Kind: reprops.KindM4},
		{Kind: reprops.KindMinMax},
		{Kind: reprops.KindLTTB},
		{Kind: reprops.KindMinMaxLTTB, Ratio: 2},
		{Kind: reprops.KindMinMaxLTTB, Ratio: 4},
	}
}

// CheckRepr answers every query shape with every representation operator
// through three physical paths — LSM, LSM with the pyramid disabled, and
// UDF — and requires each to equal the reference reduction over the
// oracle's merged series exactly.
func (c *Case) CheckRepr() error {
	ctx := context.Background()
	for _, q := range c.dom.queries(c.tMax) {
		for _, id := range c.ids {
			merged := c.Oracle.Merged(id)
			for _, spec := range reprCheckSpecs() {
				want, err := reprops.Reduce(spec, q, merged)
				if err != nil {
					return fmt.Errorf("seed %d: oracle %s %s %+v: %w", c.Seed, id, spec, q, err)
				}
				paths := []struct {
					name       string
					noPyr, udf bool
				}{
					{name: "lsm"},
					{name: "lsm-nopyr", noPyr: true},
					{name: "udf", udf: true},
				}
				for _, path := range paths {
					snap, err := c.engine.Snapshot(id, q.Range())
					if err != nil {
						return fmt.Errorf("seed %d: snapshot %s: %w", c.Seed, id, err)
					}
					if path.noPyr {
						snap.Pyramid = nil // the span×G path alone
					}
					snaps := []*storage.Snapshot{snap}
					var outs []series.Series
					if path.udf {
						outs, err = m4udf.ReduceMultiContext(ctx, snaps, q, spec, m4udf.Options{})
					} else {
						outs, err = m4lsm.ReduceMultiContext(ctx, snaps, q, spec, m4lsm.Options{})
					}
					if err != nil {
						return fmt.Errorf("seed %d: %s %s %s %+v: %w", c.Seed, path.name, spec, id, q, err)
					}
					out := outs[0]
					if path.name == "lsm" {
						c.PyramidSpans += snap.Stats.Load().PyramidSpans
					}
					if len(out) != len(want) {
						return fmt.Errorf("seed %d: %s %s %s %+v: %d points, oracle has %d",
							c.Seed, path.name, spec, id, q, len(out), len(want))
					}
					for i := range want {
						if out[i] != want[i] {
							return fmt.Errorf("seed %d: %s %s %s %+v point %d: %v != oracle %v",
								c.Seed, path.name, spec, id, q, i, out[i], want[i])
						}
					}
				}
			}
		}
	}
	return nil
}

// RunRepr generates, repr-checks and closes one case; the returned error
// names the seed on any failure.
func RunRepr(seed int64, dir string) error {
	c, err := GenerateRepr(seed, dir)
	if err != nil {
		return err
	}
	defer c.Close()
	return c.CheckRepr()
}
