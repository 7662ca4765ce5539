package encoding

import (
	"math"
	"math/rand"
	"testing"
)

// sensorData is a low-entropy chunk: values move in steps of 0.25, so most
// XORs fit the previous window in a few bits (~2 B/point).
func sensorData(n int) ([]int64, []float64) {
	rng := rand.New(rand.NewSource(5))
	ts := make([]int64, n)
	vs := make([]float64, n)
	cur := int64(1_600_000_000_000)
	val := 20.0
	for i := 0; i < n; i++ {
		cur += 1000
		if rng.Intn(300) == 0 {
			cur += int64(rng.Intn(50)) * 1000
		}
		val += math.Round(rng.NormFloat64()*4) / 4
		ts[i] = cur
		vs[i] = val
	}
	return ts, vs
}

// highEntropyValues is what the benchmark's MF03-shaped chunks hold: an
// unrounded random walk whose mantissa changes in every bit, ~6.5 B/point
// encoded (the fixture's 7.9 includes its timestamps). At one bit per call
// the rounded sensorData above decoded at 36 ns/point and this at 164, so
// the package benchmark hid what a chunk load cost.
func highEntropyValues(n int) []float64 {
	rng := rand.New(rand.NewSource(7))
	vs := make([]float64, n)
	val := 230.0
	for i := range vs {
		val += rng.NormFloat64() * 0.37
		vs[i] = val
	}
	return vs
}

func BenchmarkEncodeTimes(b *testing.B) {
	ts, _ := sensorData(1000)
	b.SetBytes(8000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EncodeTimes(nil, ts)
	}
}

func BenchmarkDecodeTimes(b *testing.B) {
	ts, _ := sensorData(1000)
	enc := EncodeTimes(nil, ts)
	b.SetBytes(8000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeTimes(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeTimesInto(b *testing.B) {
	ts, _ := sensorData(1000)
	enc := EncodeTimes(nil, ts)
	dst := make([]int64, len(ts))
	b.SetBytes(8000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeTimesInto(dst, enc); err != nil {
			b.Fatal(err)
		}
	}
}

func benchEncodeValues(b *testing.B, vs []float64, dst []byte) {
	b.SetBytes(int64(8 * len(vs)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc := EncodeValues(dst, vs)
		if dst != nil {
			dst = enc[:0]
		}
	}
}

func benchDecodeValues(b *testing.B, vs []float64, into bool) {
	enc := EncodeValues(nil, vs)
	var dst []float64
	if into {
		dst = make([]float64, len(vs))
	}
	b.SetBytes(int64(8 * len(vs)))
	b.ReportMetric(float64(len(enc))/float64(len(vs)), "B/point")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeValuesInto(dst, enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeValuesGorilla(b *testing.B) {
	_, vs := sensorData(1000)
	benchEncodeValues(b, vs, nil)
}

func BenchmarkEncodeValuesGorillaHighEntropy(b *testing.B) {
	benchEncodeValues(b, highEntropyValues(1000), nil)
}

// The Into variants reuse their destination and must report 0 allocs/op.
func BenchmarkEncodeValuesGorillaHighEntropyInto(b *testing.B) {
	benchEncodeValues(b, highEntropyValues(1000), make([]byte, 0, 16<<10))
}

func BenchmarkDecodeValuesGorilla(b *testing.B) {
	_, vs := sensorData(1000)
	benchDecodeValues(b, vs, false)
}

func BenchmarkDecodeValuesGorillaHighEntropy(b *testing.B) {
	benchDecodeValues(b, highEntropyValues(1000), false)
}

func BenchmarkDecodeValuesGorillaHighEntropyInto(b *testing.B) {
	benchDecodeValues(b, highEntropyValues(1000), true)
}
