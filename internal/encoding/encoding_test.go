package encoding

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

func TestZigZagRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 2, -2, 1 << 40, -(1 << 40), math.MaxInt64, math.MinInt64} {
		if got := UnZigZag(ZigZag(v)); got != v {
			t.Errorf("UnZigZag(ZigZag(%d)) = %d", v, got)
		}
	}
}

func TestZigZagSmallCodes(t *testing.T) {
	// Small magnitudes must map to small codes for varint efficiency.
	want := map[int64]uint64{0: 0, -1: 1, 1: 2, -2: 3, 2: 4}
	for v, u := range want {
		if got := ZigZag(v); got != u {
			t.Errorf("ZigZag(%d) = %d, want %d", v, got, u)
		}
	}
}

func TestZigZagProperty(t *testing.T) {
	f := func(v int64) bool { return UnZigZag(ZigZag(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVarintRoundTrip(t *testing.T) {
	var buf []byte
	vals := []int64{0, 5, -5, 1 << 50, -(1 << 50)}
	for _, v := range vals {
		buf = AppendVarint(buf, v)
	}
	b := buf
	for _, want := range vals {
		var got int64
		var err error
		got, b, err = Varint(b)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("Varint = %d, want %d", got, want)
		}
	}
	if len(b) != 0 {
		t.Errorf("leftover %d bytes", len(b))
	}
}

func TestVarintCorrupt(t *testing.T) {
	if _, _, err := Varint(nil); err == nil {
		t.Error("empty buffer must error")
	}
	// A lone continuation byte is invalid.
	if _, _, err := Uvarint([]byte{0x80}); err == nil {
		t.Error("truncated uvarint must error")
	}
}

func timesRoundTrip(t *testing.T, ts []int64) {
	t.Helper()
	enc := EncodeTimes(nil, ts)
	got, rest, err := DecodeTimes(enc)
	if err != nil {
		t.Fatalf("DecodeTimes: %v", err)
	}
	if len(rest) != 0 {
		t.Fatalf("leftover %d bytes", len(rest))
	}
	if len(got) != len(ts) {
		t.Fatalf("len = %d, want %d", len(got), len(ts))
	}
	for i := range ts {
		if got[i] != ts[i] {
			t.Fatalf("ts[%d] = %d, want %d", i, got[i], ts[i])
		}
	}
}

func TestEncodeTimesBasic(t *testing.T) {
	timesRoundTrip(t, nil)
	timesRoundTrip(t, []int64{42})
	timesRoundTrip(t, []int64{42, 43})
	timesRoundTrip(t, []int64{0, 1000, 2000, 3000, 9000, 9001})
	timesRoundTrip(t, []int64{-100, -50, 0, 77})
}

func TestEncodeTimesRegularIsTiny(t *testing.T) {
	// 1000 perfectly regular timestamps: delta-of-delta is zero after the
	// first two, so the block must be far below 8 bytes/point.
	ts := make([]int64, 1000)
	for i := range ts {
		ts[i] = 1639966606000 + int64(i)*9000
	}
	enc := EncodeTimes(nil, ts)
	if len(enc) > 1100 {
		t.Errorf("regular block is %d bytes; want ~1 byte/point", len(enc))
	}
	timesRoundTrip(t, ts)
}

func TestEncodeTimesProperty(t *testing.T) {
	f := func(deltas []uint16, start int64) bool {
		ts := make([]int64, 0, len(deltas)+1)
		cur := start % (1 << 40)
		ts = append(ts, cur)
		for _, d := range deltas {
			cur += int64(d) + 1
			ts = append(ts, cur)
		}
		enc := EncodeTimes(nil, ts)
		got, rest, err := DecodeTimes(enc)
		if err != nil || len(rest) != 0 {
			return false
		}
		return reflect.DeepEqual(got, ts)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeTimesCorrupt(t *testing.T) {
	enc := EncodeTimes(nil, []int64{1, 2, 3, 4})
	for cut := 1; cut < len(enc); cut++ {
		if _, _, err := DecodeTimes(enc[:cut]); err == nil {
			t.Errorf("truncation at %d bytes decoded successfully", cut)
		}
	}
	// A damaged count must be refused from the block's size alone, before
	// anything is allocated for it (2^31 timestamps would be 16 GiB).
	hostile := append(AppendUvarint(nil, 1<<31), enc[1:]...)
	assertCorruptWithoutAllocating(t, "DecodeTimes", func() error { _, _, err := DecodeTimes(hostile); return err })
	// A caller-owned destination pins the count.
	if _, _, err := DecodeTimesInto(make([]int64, 3), enc); !errors.Is(err, ErrCorrupt) {
		t.Errorf("4-timestamp block decoded into a 3-element destination: %v", err)
	}
	if got, _, err := DecodeTimesInto(make([]int64, 4), enc); err != nil || got[3] != 4 {
		t.Errorf("decode into an exact destination = %v, %v", got, err)
	}
}

// assertCorruptWithoutAllocating runs a decode of a block whose count is
// damaged: it must fail with ErrCorrupt having allocated next to nothing
// (the error value itself), not the gigabytes the count asks for.
func assertCorruptWithoutAllocating(t *testing.T, name string, decode func() error) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := decode()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("%s with a damaged count: %v, want ErrCorrupt", name, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
		t.Errorf("%s with a damaged count allocated %d bytes before refusing it", name, grew)
	}
}

func valuesRoundTrip(t *testing.T, vs []float64) {
	t.Helper()
	enc := EncodeValues(nil, vs)
	if ref := refEncodeValues(nil, vs); !bytes.Equal(enc, ref) {
		t.Fatalf("EncodeValues = %x, bit-at-a-time reference %x", enc, ref)
	}
	if app := EncodeValues([]byte{0xEE}, vs); app[0] != 0xEE || !bytes.Equal(app[1:], enc) {
		t.Fatalf("EncodeValues behind a 1-byte prefix = %x, want ee + %x", app, enc)
	}
	got, rest, err := DecodeValues(enc)
	if err != nil {
		t.Fatalf("DecodeValues: %v", err)
	}
	if len(rest) != 0 {
		t.Fatalf("leftover %d bytes", len(rest))
	}
	if len(got) != len(vs) {
		t.Fatalf("len = %d, want %d", len(got), len(vs))
	}
	for i := range vs {
		if math.Float64bits(got[i]) != math.Float64bits(vs[i]) {
			t.Fatalf("vs[%d] = %v, want %v", i, got[i], vs[i])
		}
	}
}

func TestEncodeValuesBasic(t *testing.T) {
	valuesRoundTrip(t, nil)
	valuesRoundTrip(t, []float64{3.14})
	valuesRoundTrip(t, []float64{1, 1, 1, 1})
	valuesRoundTrip(t, []float64{0, -0, 1.5, -1.5, math.MaxFloat64, math.SmallestNonzeroFloat64})
	valuesRoundTrip(t, []float64{math.Inf(1), math.Inf(-1), 0})
}

func TestEncodeValuesConstantIsTiny(t *testing.T) {
	vs := make([]float64, 1000)
	for i := range vs {
		vs[i] = 21.5
	}
	enc := EncodeValues(nil, vs)
	if len(enc) > 200 {
		t.Errorf("constant block is %d bytes; want ~1 bit/point", len(enc))
	}
	valuesRoundTrip(t, vs)
}

func TestEncodeValuesRandomWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vs := make([]float64, 5000)
	cur := 100.0
	for i := range vs {
		cur += rng.NormFloat64()
		vs[i] = cur
	}
	valuesRoundTrip(t, vs)
}

func TestEncodeValuesProperty(t *testing.T) {
	f := func(bits []uint64) bool {
		vs := make([]float64, len(bits))
		for i, b := range bits {
			v := math.Float64frombits(b)
			if math.IsNaN(v) {
				v = 0 // NaN payloads are rejected upstream by Validate
			}
			vs[i] = v
		}
		enc := EncodeValues(nil, vs)
		got, rest, err := DecodeValues(enc)
		if err != nil || len(rest) != 0 || len(got) != len(vs) {
			return false
		}
		for i := range vs {
			if math.Float64bits(got[i]) != math.Float64bits(vs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeValuesCorrupt(t *testing.T) {
	enc := EncodeValues(nil, []float64{1.5, 2.5, 3.5, 2.5})
	for cut := 1; cut < len(enc); cut++ {
		got, rest, err := DecodeValues(enc[:cut])
		if err == nil && len(rest) == 0 && len(got) == 4 {
			t.Errorf("truncation at %d bytes decoded to a full block", cut)
		}
	}
	// The count is bounded by the payload's bits before anything is
	// allocated: 2^31 values would be 16 GiB, this payload holds at most
	// 8*plen-63.
	hostile := append(AppendUvarint(nil, 1<<31), enc[1:]...)
	assertCorruptWithoutAllocating(t, "DecodeValues", func() error { _, _, err := DecodeValues(hostile); return err })
	if _, _, err := DecodeValuesInto(make([]float64, 5), enc); !errors.Is(err, ErrCorrupt) {
		t.Errorf("4-value block decoded into a 5-element destination: %v", err)
	}
	if got, _, err := DecodeValuesInto(make([]float64, 4), enc); err != nil || got[2] != 3.5 {
		t.Errorf("decode into an exact destination = %v, %v", got, err)
	}
}

func TestCodecDispatch(t *testing.T) {
	ts := []int64{10, 20, 35}
	vs := []float64{1, 2, 1}
	c := CodecGorilla
	if enc := c.EncodeTimesWith(nil, ts); !bytes.Equal(enc, EncodeTimes(nil, ts)) {
		t.Fatalf("times encode to %x, want EncodeTimes' bytes", enc)
	}
	if enc := c.EncodeValuesWith(nil, vs); !bytes.Equal(enc, EncodeValues(nil, vs)) {
		t.Fatalf("values encode to %x, want EncodeValues' bytes", enc)
	}
	gt, rest, err := c.DecodeTimesWith(c.EncodeTimesWith(nil, ts))
	if err != nil || len(rest) != 0 || !reflect.DeepEqual(gt, ts) {
		t.Fatalf("times: %v %v %v", gt, rest, err)
	}
	gv, rest, err := c.DecodeValuesWith(c.EncodeValuesWith(nil, vs))
	if err != nil || len(rest) != 0 || !reflect.DeepEqual(gv, vs) {
		t.Fatalf("values: %v %v %v", gv, rest, err)
	}
}

func TestBitStreamRoundTrip(t *testing.T) {
	w := bitWriter{}
	w.writeBit(1)
	w.writeBits(0b1011, 4)
	w.writeBits(0xDEADBEEF, 32)
	w.writeBit(0)
	r := bitReader{buf: w.bytes()}
	if b := r.readBit(); b != 1 {
		t.Fatal("bit 0")
	}
	if v := r.readBits(4); v != 0b1011 {
		t.Fatalf("bits = %b", v)
	}
	if v := r.readBits(32); v != 0xDEADBEEF {
		t.Fatalf("word = %x", v)
	}
	if b := r.readBit(); b != 0 || r.err() != nil {
		t.Fatal("trailing bit")
	}
}

func TestBitReaderExhaustion(t *testing.T) {
	r := bitReader{buf: []byte{0xFF}}
	if v := r.readBits(8); v != 0xFF || r.err() != nil {
		t.Fatalf("readBits(8) = %x, %v", v, r.err())
	}
	if r.readBit(); !errors.Is(r.err(), ErrCorrupt) {
		t.Errorf("reading past end: err = %v, want ErrCorrupt", r.err())
	}
}

func TestBitStreamProperty(t *testing.T) {
	f := func(fields []uint16) bool {
		w := bitWriter{}
		for _, v := range fields {
			w.writeBits(uint64(v), 16)
		}
		r := bitReader{buf: w.bytes()}
		for _, v := range fields {
			if got := r.readBits(16); got != uint64(v) {
				return false
			}
		}
		return r.err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompressionRatioOnSensorLikeData(t *testing.T) {
	// Regular 9s cadence with occasional gaps and a slowly drifting value:
	// the Gorilla codec must beat 16 B/pt, raw 8-byte timestamps and
	// values, by a wide margin.
	rng := rand.New(rand.NewSource(3))
	n := 4096
	ts := make([]int64, n)
	vs := make([]float64, n)
	cur := int64(1639966606000)
	val := 20.0
	for i := 0; i < n; i++ {
		cur += 9000
		if rng.Intn(500) == 0 {
			cur += int64(rng.Intn(100)) * 9000
		}
		val += math.Round(rng.NormFloat64()*8) / 8 // quantized sensor steps
		ts[i] = cur
		vs[i] = val
	}
	gor := len(EncodeTimes(nil, ts)) + len(EncodeValues(nil, vs))
	if raw := 16 * n; gor*2 >= raw {
		t.Errorf("gorilla %dB vs raw %dB: expected >2x compression", gor, raw)
	}
	timesRoundTrip(t, ts)
	valuesRoundTrip(t, vs)
}

// DecodeTimes decodes a block produced by EncodeTimes and returns the
// timestamps along with the remaining buffer.
func DecodeTimes(b []byte) ([]int64, []byte, error) { return DecodeTimesInto(nil, b) }

// DecodeValues decodes a block produced by EncodeValues and returns the
// values along with the remaining buffer.
func DecodeValues(b []byte) ([]float64, []byte, error) { return DecodeValuesInto(nil, b) }
