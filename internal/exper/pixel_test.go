package exper

import (
	"math/rand"
	"testing"

	"m4lsm/internal/m4"
	"m4lsm/internal/reprops"
	"m4lsm/internal/series"
	"m4lsm/internal/viz"
)

func genSeries(rng *rand.Rand, n int) series.Series {
	s := make(series.Series, 0, n)
	tt := int64(0)
	v := 0.0
	for i := 0; i < n; i++ {
		tt += int64(1 + rng.Intn(15))
		v += rng.NormFloat64() * 3
		s = append(s, series.Point{T: tt, V: v})
	}
	return s
}

func TestAllTechniquesProduceSortedSubBudgetOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := genSeries(rng, 5000)
	q := m4.Query{Tqs: 0, Tqe: s[len(s)-1].T + 1, W: 64}
	budgets := map[string]int{"M4": 4 * q.W, "MinMax": 2 * q.W, "LTTB": q.W, "MinMaxLTTB": q.W, "Sampling": q.W, "PAA": q.W}
	for _, tech := range techniques() {
		out, err := tech.reduce(q, s)
		if err != nil {
			t.Fatalf("%s: %v", tech.name, err)
		}
		if err := out.Columns().Validate(); err != nil {
			t.Errorf("%s output: %v", tech.name, err)
		}
		if len(out) == 0 || len(out) > budgets[tech.name] {
			t.Errorf("%s kept %d points, budget %d", tech.name, len(out), budgets[tech.name])
		}
	}
}

func TestOnlyM4IsErrorFree(t *testing.T) {
	// The motivating claim of §1/§5.1: at w pixel columns, M4 renders
	// with zero pixel error; MinMax/Sampling/PAA do not (on data with
	// intra-column variation).
	zeroErr := map[string]int{}
	trials := 25
	for seed := int64(0); seed < int64(trials); seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := genSeries(rng, 4000)
		q := m4.Query{Tqs: 0, Tqe: s[len(s)-1].T + 1, W: 50}
		vp := viz.ViewportFor(s, q.Tqs, q.Tqe)
		full := viz.Rasterize(s, vp, q.W, 60)
		for _, tech := range techniques() {
			out, err := tech.reduce(q, s)
			if err != nil {
				t.Fatal(err)
			}
			if viz.Diff(full, viz.Rasterize(out, vp, q.W, 60)) == 0 {
				zeroErr[tech.name]++
			}
		}
	}
	if zeroErr["M4"] != trials {
		t.Errorf("M4 error-free in %d/%d trials, want all", zeroErr["M4"], trials)
	}
	for _, name := range []string{"MinMax", "LTTB", "MinMaxLTTB", "Sampling", "PAA"} {
		if zeroErr[name] == trials {
			t.Errorf("%s was error-free in every trial; it must lose pixels on varying data", name)
		}
	}
}

func TestPAAValues(t *testing.T) {
	s := series.Series{{T: 0, V: 2}, {T: 1, V: 4}, {T: 5, V: 10}}
	q := m4.Query{Tqs: 0, Tqe: 10, W: 2}
	out, err := paa(q, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].V != 3 || out[1].V != 10 {
		t.Fatalf("PAA = %v", out)
	}
	if out[0].T != 0 || out[1].T != 5 {
		t.Fatalf("PAA times = %v", out)
	}
}

func TestMinMaxSingleValueSpan(t *testing.T) {
	s := series.Series{{T: 1, V: 5}}
	q := m4.Query{Tqs: 0, Tqe: 10, W: 1}
	out, err := reprops.Reduce(reprops.Spec{Kind: reprops.KindMinMax}, q, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("MinMax single-point span = %v (must not duplicate)", out)
	}
}

func TestSampleKeepsFirsts(t *testing.T) {
	s := series.Series{{T: 0, V: 1}, {T: 2, V: 9}, {T: 5, V: 3}, {T: 7, V: 4}}
	q := m4.Query{Tqs: 0, Tqe: 10, W: 2}
	out, err := sample(q, s)
	if err != nil {
		t.Fatal(err)
	}
	want := series.Series{{T: 0, V: 1}, {T: 5, V: 3}}
	if len(out) != 2 || out[0] != want[0] || out[1] != want[1] {
		t.Fatalf("Sample = %v, want %v", out, want)
	}
}

func TestInvalidQueryPropagates(t *testing.T) {
	for _, tech := range techniques() {
		if _, err := tech.reduce(m4.Query{Tqs: 0, Tqe: 0, W: 1}, nil); err == nil {
			t.Errorf("%s accepted an invalid query", tech.name)
		}
	}
}
