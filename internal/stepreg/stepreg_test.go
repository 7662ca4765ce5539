package stepreg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// paperChunk reconstructs the 1000-point chunk of Examples 3.8–3.10: 242
// points at a 9s cadence, a transmission gap (two large deltas), then the
// remaining points resuming the 9s cadence so that the last point lands on
// t=1639979452000.
func paperChunk() []int64 {
	ts := make([]int64, 0, 1000)
	t := int64(1639966606000)
	for i := 1; i <= 242; i++ {
		ts = append(ts, t)
		t += 9000
	}
	// t242 = 1639968775000. Gap: t243, then t244 = 1639972648000 so that
	// resuming at 9s cadence puts t1000 at 1639979452000.
	ts = append(ts, 1639970675000)
	t = 1639972648000
	for i := 244; i <= 1000; i++ {
		ts = append(ts, t)
		t += 9000
	}
	return ts
}

func TestPaperExampleSlope(t *testing.T) {
	ix := Build(paperChunk())
	if got, want := ix.Slope(), 1.0/9000; got != want {
		t.Errorf("Slope = %v, want %v (Example 3.9)", got, want)
	}
}

func TestPaperExampleSplits(t *testing.T) {
	ix := Build(paperChunk())
	want := []int64{1639966606000, 1639968775000, 1639972630000, 1639979452000}
	got := ix.Splits()
	if len(got) != len(want) {
		t.Fatalf("splits = %v, want %v (Example 3.8)", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("split[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestPaperExampleBoundaries(t *testing.T) {
	// Proposition 3.7: f(FP.t) = 1 and f(LP.t) = |C|.
	ts := paperChunk()
	ix := Build(ts)
	if got := ix.eval(ts[0]); math.Abs(got-1) > 1e-6 {
		t.Errorf("f(first) = %v, want 1", got)
	}
	if got := ix.eval(ts[len(ts)-1]); math.Abs(got-1000) > 1e-6 {
		t.Errorf("f(last) = %v, want 1000", got)
	}
	// The level segment sits at position 242 (Example 3.8).
	if got := ix.eval(1639969000000); math.Abs(got-242) > 1e-6 {
		t.Errorf("f(level) = %v, want 242", got)
	}
}

func TestPaperExampleSegments(t *testing.T) {
	ix := Build(paperChunk())
	segs := ix.Segments()
	if len(segs) != 3 {
		t.Fatalf("got %d segments, want 3 (tilt, level, tilt)", len(segs))
	}
	if !segs[0].Tilt || segs[1].Tilt || !segs[2].Tilt {
		t.Errorf("segment shapes = %v %v %v, want tilt/level/tilt",
			segs[0].Tilt, segs[1].Tilt, segs[2].Tilt)
	}
	if segs[1].Intercept != 242 {
		t.Errorf("level intercept = %v, want 242", segs[1].Intercept)
	}
	for _, s := range segs {
		if s.String() == "" {
			t.Error("empty segment description")
		}
	}
}

func TestPaperExampleExactFit(t *testing.T) {
	ix := Build(paperChunk())
	if ix.MaxErr() > 1 {
		t.Errorf("MaxErr = %d; the step fit should be near exact on step data", ix.MaxErr())
	}
}

func checkAgainstPlain(t *testing.T, ts []int64, probes []int64) {
	t.Helper()
	ix := Build(ts)
	px := NewPlain(ts)
	for _, q := range probes {
		if got, want := ix.Exists(q), px.Exists(q); got != want {
			t.Fatalf("Exists(%d) = %v, want %v (n=%d)", q, got, want, len(ts))
		}
		gi, gok := ix.FirstAfter(q)
		wi, wok := px.FirstAfter(q)
		if gok != wok || (gok && gi != wi) {
			t.Fatalf("FirstAfter(%d) = %d,%v, want %d,%v", q, gi, gok, wi, wok)
		}
		gi, gok = ix.LastBefore(q)
		wi, wok = px.LastBefore(q)
		if gok != wok || (gok && gi != wi) {
			t.Fatalf("LastBefore(%d) = %d,%v, want %d,%v", q, gi, gok, wi, wok)
		}
	}
}

func TestProbesTinyChunks(t *testing.T) {
	checkAgainstPlain(t, nil, []int64{0, 5})
	checkAgainstPlain(t, []int64{100}, []int64{99, 100, 101})
	checkAgainstPlain(t, []int64{100, 200}, []int64{99, 100, 150, 200, 201})
}

func TestProbesRegular(t *testing.T) {
	ts := make([]int64, 500)
	for i := range ts {
		ts[i] = 1000 + int64(i)*50
	}
	var probes []int64
	for q := int64(900); q < 26200; q += 7 {
		probes = append(probes, q)
	}
	checkAgainstPlain(t, ts, probes)
}

func TestProbesPaperChunk(t *testing.T) {
	ts := paperChunk()
	probes := make([]int64, 0, 4000)
	for _, q := range ts {
		probes = append(probes, q-1, q, q+1)
	}
	probes = append(probes, 1639970675000-9000, 1639972648000+4500)
	checkAgainstPlain(t, ts, probes)
}

func TestProbesRandomProperty(t *testing.T) {
	f := func(rawDeltas []uint16, queries []int64, seed int64) bool {
		if len(rawDeltas) == 0 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		ts := make([]int64, 0, len(rawDeltas))
		cur := int64(rng.Intn(1 << 20))
		for _, d := range rawDeltas {
			cur += int64(d%5000) + 1
			ts = append(ts, cur)
		}
		ix := Build(ts)
		px := NewPlain(ts)
		for _, q := range queries {
			q = ts[0] + q%(ts[len(ts)-1]-ts[0]+100)
			if ix.Exists(q) != px.Exists(q) {
				return false
			}
			gi, gok := ix.FirstAfter(q)
			wi, wok := px.FirstAfter(q)
			if gok != wok || (gok && gi != wi) {
				return false
			}
			gi, gok = ix.LastBefore(q)
			wi, wok = px.LastBefore(q)
			if gok != wok || (gok && gi != wi) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestProbesAdversarialSteps(t *testing.T) {
	// Alternating bursts and long gaps; many changing points.
	rng := rand.New(rand.NewSource(42))
	ts := make([]int64, 0, 2000)
	cur := int64(0)
	for len(ts) < 2000 {
		run := 20 + rng.Intn(80)
		for i := 0; i < run && len(ts) < 2000; i++ {
			cur += 100
			ts = append(ts, cur)
		}
		cur += int64(1+rng.Intn(50)) * 100000
	}
	probes := make([]int64, 0, 3000)
	for i := 0; i < 3000; i++ {
		probes = append(probes, int64(rng.Intn(int(cur+1000))))
	}
	checkAgainstPlain(t, ts, probes)
}

func TestProbesDuplicateDeltasMedianOne(t *testing.T) {
	// Deltas of exactly 1ms: slope 1000 points/sec. Also exercises the
	// med<=0 guard indirectly via tiny deltas.
	ts := make([]int64, 64)
	for i := range ts {
		ts[i] = int64(i)
	}
	checkAgainstPlain(t, ts, []int64{-1, 0, 31, 63, 64, 100})
}

func TestFirstAfterLastBeforeSemantics(t *testing.T) {
	ts := []int64{10, 20, 30}
	ix := Build(ts)
	// Strictly after/before, per Definition 3.5.
	if pos, ok := ix.FirstAfter(20); !ok || pos != 2 {
		t.Errorf("FirstAfter(20) = %d,%v, want 2,true", pos, ok)
	}
	if pos, ok := ix.LastBefore(20); !ok || pos != 0 {
		t.Errorf("LastBefore(20) = %d,%v, want 0,true", pos, ok)
	}
	if _, ok := ix.FirstAfter(30); ok {
		t.Error("FirstAfter(last) must report none")
	}
	if _, ok := ix.LastBefore(10); ok {
		t.Error("LastBefore(first) must report none")
	}
	if pos, ok := ix.FirstAfter(5); !ok || pos != 0 {
		t.Errorf("FirstAfter(5) = %d,%v", pos, ok)
	}
	if pos, ok := ix.LastBefore(35); !ok || pos != 2 {
		t.Errorf("LastBefore(35) = %d,%v", pos, ok)
	}
}

func TestLenAndStats(t *testing.T) {
	ts := paperChunk()
	ix := Build(ts)
	if len(ix.ts) != 1000 {
		t.Errorf("Len = %d", len(ix.ts))
	}
	if ix.MaxErr() < 0 {
		t.Errorf("MaxErr = %d", ix.MaxErr())
	}
}

func BenchmarkStepRegressionProbe(b *testing.B) {
	ts := paperChunk()
	ix := Build(ts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Exists(ts[i%len(ts)])
	}
}

func BenchmarkPlainProbe(b *testing.B) {
	ts := paperChunk()
	px := NewPlain(ts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		px.Exists(ts[i%len(ts)])
	}
}

func BenchmarkBuild(b *testing.B) {
	ts := paperChunk()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(ts)
	}
}
