package faultfs

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"m4lsm/internal/series"
	"m4lsm/internal/storage"
	"m4lsm/internal/testutil"
)

func TestDecideDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, ErrRate: 0.3, FlipRate: 0.3, ShortRate: 0.2, SlowRate: 0.1}
	a, b := NewInjector(cfg), NewInjector(cfg)
	for i := 0; i < 1000; i++ {
		site := fmt.Sprintf("chunk:s/v%d/data", i)
		if a.Decide(site) != b.Decide(site) {
			t.Fatalf("site %q: two injectors with the same seed disagree", site)
		}
		if a.Decide(site) != a.Decide(site) {
			t.Fatalf("site %q: repeated Decide disagrees with itself", site)
		}
	}
	other := NewInjector(Config{Seed: 43, ErrRate: 0.3, FlipRate: 0.3, ShortRate: 0.2, SlowRate: 0.1})
	same := 0
	for i := 0; i < 1000; i++ {
		site := fmt.Sprintf("chunk:s/v%d/data", i)
		if a.Decide(site) == other.Decide(site) {
			same++
		}
	}
	if same == 1000 {
		t.Error("changing the seed changed nothing")
	}
}

func TestDecideRates(t *testing.T) {
	in := NewInjector(Config{Seed: 7, ErrRate: 0.25, FlipRate: 0.15, SlowRate: 0.1})
	counts := map[Fault]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[in.Decide(fmt.Sprintf("site-%d", i))]++
	}
	for _, c := range []struct {
		f    Fault
		want float64
	}{{FaultErr, 0.25}, {FaultFlip, 0.15}, {FaultSlow, 0.1}, {FaultNone, 0.5}} {
		got := float64(counts[c.f]) / n
		if math.Abs(got-c.want) > 0.02 {
			t.Errorf("%v rate = %.3f, want ~%.2f", c.f, got, c.want)
		}
	}
}

func memSnapshotSource(t *testing.T) (storage.ChunkMeta, testutil.Chunks) {
	t.Helper()
	src := testutil.Chunks{}
	meta, err := src.Add(1, series.Series{{T: 1, V: 2}, {T: 3, V: 4}})
	if err != nil {
		t.Fatal(err)
	}
	return meta, src
}

func TestSourceFaults(t *testing.T) {
	meta, inner := memSnapshotSource(t)

	t.Run("err", func(t *testing.T) {
		s := Wrap(inner, NewInjector(Config{Seed: 1, ErrRate: 1}))
		if _, err := s.ReadChunk(meta); !errors.Is(err, ErrInjected) {
			t.Fatalf("err = %v", err)
		}
		if _, err := s.ReadTimes(meta); !errors.Is(err, ErrInjected) {
			t.Fatalf("times err = %v", err)
		}
		if _, err := s.ReadValues(meta); !errors.Is(err, ErrInjected) {
			t.Fatalf("values err = %v", err)
		}
	})
	t.Run("value reads draw the data site", func(t *testing.T) {
		mem := testutil.Chunks{}
		s := Wrap(mem, NewInjector(Config{Seed: 3, ErrRate: 0.5}))
		failed := 0
		for v := storage.Version(1); v <= 40; v++ {
			m, err := mem.Add(v, series.Series{{T: 1, V: float64(v)}})
			if err != nil {
				t.Fatal(err)
			}
			_, chunkErr := s.ReadChunk(m)
			vs, valuesErr := s.ReadValues(m)
			if (chunkErr == nil) != (valuesErr == nil) {
				t.Fatalf("v%d: ReadChunk err %v, ReadValues err %v: one site, two fates", v, chunkErr, valuesErr)
			}
			if valuesErr == nil && vs[0] != float64(v) {
				t.Fatalf("v%d: values = %v", v, vs)
			}
			if chunkErr != nil {
				failed++
			}
		}
		if failed == 0 || failed == 40 {
			t.Fatalf("%d of 40 chunks failed at rate 0.5", failed)
		}
	})
	t.Run("flip without sentinel", func(t *testing.T) {
		s := Wrap(inner, NewInjector(Config{Seed: 1, FlipRate: 1}))
		if _, err := s.ReadChunk(meta); !errors.Is(err, ErrInjected) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("flip with sentinel", func(t *testing.T) {
		corrupt := errors.New("corrupt sentinel")
		s := Wrap(inner, NewInjector(Config{Seed: 1, FlipRate: 1}))
		s.CorruptErr = corrupt
		_, err := s.ReadChunk(meta)
		if !errors.Is(err, corrupt) {
			t.Fatalf("err = %v, want wrapped sentinel", err)
		}
		if errors.Is(err, ErrInjected) {
			t.Error("sentinel error should replace ErrInjected, not join it")
		}
	})
	t.Run("clean", func(t *testing.T) {
		s := Wrap(inner, NewInjector(Config{Seed: 1}))
		data, err := s.ReadChunk(meta)
		if err != nil || data.Len() != 2 {
			t.Fatalf("data=%v err=%v", data, err)
		}
	})
}

func TestStepInjector(t *testing.T) {
	inj := NewStepInjector(3)
	sites := []string{"wal.append", "wal.appended", "flush.create:x", "flush.chunk:x"}
	var got []error
	for _, s := range sites {
		got = append(got, inj.Step(s))
	}
	for i, err := range got {
		if i == 2 {
			if !errors.Is(err, ErrCrash) {
				t.Errorf("step %d: err = %v, want ErrCrash", i+1, err)
			}
		} else if err != nil {
			t.Errorf("step %d: err = %v, want nil", i+1, err)
		}
	}
	if inj.Steps() != 4 {
		t.Errorf("steps = %d", inj.Steps())
	}
	if s := inj.Sites(); len(s) != 4 || s[2] != "flush.create:x" {
		t.Errorf("sites = %v", s)
	}

	counting := NewStepInjector(0)
	for i := 0; i < 100; i++ {
		if err := counting.Step("s"); err != nil {
			t.Fatalf("failAt 0 crashed at step %d", i+1)
		}
	}
}
