package encoding

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"testing"
)

// The bit-at-a-time stream and the Gorilla codec over it, as they stood
// before the word-at-a-time rewrite. They are the reference the fuzzers
// below hold the production codec to: same bytes out, same values, same
// remaining buffer and same error-vs-ok on any input.

type refBitWriter struct {
	buf  []byte
	nbit uint8 // bits already used in the last byte (0..7)
}

func (w *refBitWriter) writeBit(bit uint64) {
	if w.nbit == 0 {
		w.buf = append(w.buf, 0)
	}
	if bit != 0 {
		w.buf[len(w.buf)-1] |= 1 << (7 - w.nbit)
	}
	w.nbit = (w.nbit + 1) & 7
}

func (w *refBitWriter) writeBits(v uint64, n uint) {
	for n > 0 {
		n--
		w.writeBit((v >> n) & 1)
	}
}

type refBitReader struct {
	buf []byte
	pos int   // byte position
	bit uint8 // bit position within buf[pos]
}

func (r *refBitReader) readBit() (uint64, error) {
	if r.pos >= len(r.buf) {
		return 0, corruptf("bit stream exhausted at byte %d", r.pos)
	}
	bit := uint64(r.buf[r.pos]>>(7-r.bit)) & 1
	r.bit++
	if r.bit == 8 {
		r.bit = 0
		r.pos++
	}
	return bit, nil
}

func (r *refBitReader) readBits(n uint) (uint64, error) {
	var v uint64
	for i := uint(0); i < n; i++ {
		bit, err := r.readBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | bit
	}
	return v, nil
}

func refEncodeValues(dst []byte, vs []float64) []byte {
	dst = AppendUvarint(dst, uint64(len(vs)))
	if len(vs) == 0 {
		return dst
	}
	w := refBitWriter{}
	prev := math.Float64bits(vs[0])
	w.writeBits(prev, 64)
	leading, trailing := uint(65), uint(0)
	for _, v := range vs[1:] {
		cur := math.Float64bits(v)
		xor := cur ^ prev
		prev = cur
		if xor == 0 {
			w.writeBit(0)
			continue
		}
		w.writeBit(1)
		lz := uint(bits.LeadingZeros64(xor))
		tz := uint(bits.TrailingZeros64(xor))
		if lz >= 32 {
			lz = 31
		}
		if leading <= 64 && lz >= leading && tz >= trailing {
			w.writeBit(0)
			w.writeBits(xor>>trailing, 64-leading-trailing)
			continue
		}
		leading, trailing = lz, tz
		n := 64 - leading - trailing
		w.writeBit(1)
		w.writeBits(uint64(leading), 5)
		w.writeBits(uint64(n-1), 6)
		w.writeBits(xor>>trailing, n)
	}
	dst = AppendUvarint(dst, uint64(len(w.buf)))
	return append(dst, w.buf...)
}

// refDecodeValues differs from the old DecodeValues in one respect: it grows
// its result by append where the old code reserved count elements up front,
// so the fuzzer can feed it the hostile counts that used to ask for 16 GiB.
func refDecodeValues(b []byte) ([]float64, []byte, error) {
	count, b, err := Uvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if count > 1<<31 {
		return nil, nil, corruptf("value count %d too large", count)
	}
	vs := []float64{}
	if count == 0 {
		return vs, b, nil
	}
	plen, b, err := Uvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if plen > uint64(len(b)) {
		return nil, nil, corruptf("value payload %d exceeds buffer %d", plen, len(b))
	}
	r := &refBitReader{buf: b[:plen]}
	rest := b[plen:]
	prev, err := r.readBits(64)
	if err != nil {
		return nil, nil, err
	}
	vs = append(vs, math.Float64frombits(prev))
	var leading, trailing uint
	for uint64(len(vs)) < count {
		ctl, err := r.readBit()
		if err != nil {
			return nil, nil, err
		}
		if ctl == 0 {
			vs = append(vs, math.Float64frombits(prev))
			continue
		}
		if ctl, err = r.readBit(); err != nil {
			return nil, nil, err
		}
		if ctl == 1 {
			lz, err := r.readBits(5)
			if err != nil {
				return nil, nil, err
			}
			nm1, err := r.readBits(6)
			if err != nil {
				return nil, nil, err
			}
			leading = uint(lz)
			n := uint(nm1) + 1
			if leading+n > 64 {
				return nil, nil, corruptf("window leading=%d sig=%d", leading, n)
			}
			trailing = 64 - leading - n
		}
		sig, err := r.readBits(64 - leading - trailing)
		if err != nil {
			return nil, nil, err
		}
		prev ^= sig << trailing
		vs = append(vs, math.Float64frombits(prev))
	}
	return vs, rest, nil
}

// FuzzBitStream drives both bit streams with the same (value, width)
// sequence, widths 0–64: the writers must produce the same bytes, and the
// readers must return the same fields and, once the stream runs out (the
// sequence is read back too far, at every width), fail on the same read —
// the production reader by turning exhausted, for good.
func FuzzBitStream(f *testing.F) {
	f.Add([]byte{1, 0xff, 64, 0xde, 0xad, 0xbe, 0xef, 0, 63, 7, 13, 0x55})
	f.Add(bytes.Repeat([]byte{64, 0xa5}, 40))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, script []byte) {
		type field struct {
			v uint64
			n uint
		}
		var fields []field
		for i := 0; i+1 < len(script); i += 2 {
			// One script byte is spread over all 64 value bits, so writeBits
			// sees set bits above the field width too.
			fields = append(fields, field{uint64(script[i+1]+1) * 0x9e3779b97f4a7c15, uint(script[i]) % 65})
		}
		var w bitWriter
		var rw refBitWriter
		for _, fd := range fields {
			w.writeBits(fd.v, fd.n)
			rw.writeBits(fd.v, fd.n)
		}
		enc := w.bytes()
		if !bytes.Equal(enc, rw.buf) {
			t.Fatalf("writer bytes %x, reference %x", enc, rw.buf)
		}
		// Read every field back, then run past the end from that position
		// at every width: copies of the two readers take one read that
		// may or may not fit the padding, one that cannot, and an empty one.
		r, rr := bitReader{buf: enc}, refBitReader{buf: enc}
		for i, fd := range fields {
			wrote := fd.v
			if fd.n < 64 {
				wrote &= 1<<fd.n - 1
			}
			got, err := r.readBits(fd.n), r.err()
			ref, rerr := rr.readBits(fd.n)
			if err != nil || rerr != nil || got != wrote || ref != wrote {
				t.Fatalf("field %d (width %d): read %x, %v; reference %x, %v; wrote %x", i, fd.n, got, err, ref, rerr, wrote)
			}
		}
		for tail := uint(0); tail <= 64; tail++ {
			r, rr, refFailed := r, rr, false
			for _, n := range []uint{tail, 64, 0} {
				got, err := r.readBits(n), r.err()
				ref, rerr := rr.readBits(n)
				refFailed = refFailed || rerr != nil
				if (err != nil) != refFailed || got != ref {
					t.Fatalf("past the end, width %d then %d: got %x, %v; reference %x, %v", tail, n, got, err, ref, rerr)
				}
				if err != nil && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("exhaustion reported as %v, want ErrCorrupt", err)
				}
			}
		}
	})
}

// FuzzDecodeValues feeds arbitrary bytes to the Gorilla decoder and its
// reference: they must agree on values, remaining buffer and error-vs-ok,
// an error must be ErrCorrupt, and a successful decode can never hold more
// values than the payload has bits for (the allocation bound).
func FuzzDecodeValues(f *testing.F) {
	f.Add(EncodeValues(nil, []float64{1.5, 2.5, 3.5, 2.5, 2.5, -0.0, math.Inf(1)}))
	f.Add(append(EncodeValues(nil, []float64{7, 7, 7, 8}), 0xaa, 0xbb))
	f.Add(binary.AppendUvarint(binary.AppendUvarint(nil, 1<<31), 0))
	f.Add(append(binary.AppendUvarint(binary.AppendUvarint(nil, 1<<31), 9), make([]byte, 9)...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		got, rest, err := DecodeValues(b)
		want, wantRest, rerr := refDecodeValues(b)
		if (err != nil) != (rerr != nil) {
			t.Fatalf("decode error %v, reference error %v", err, rerr)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v is not ErrCorrupt", err)
			}
			return
		}
		if len(got) != len(want) || !bytes.Equal(rest, wantRest) {
			t.Fatalf("decoded %d values and %d remaining bytes, reference %d and %d", len(got), len(rest), len(want), len(wantRest))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("value %d: %x, reference %x", i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
		if len(got) > 8*len(b) {
			t.Fatalf("%d values decoded from %d bytes", len(got), len(b))
		}
		// Same block, caller-owned destination: the count must be honoured.
		if _, _, err := DecodeValuesInto(make([]float64, len(got)+1), b); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("a destination one longer than the block's count decoded: %v", err)
		}
		if into, _, err := DecodeValuesInto(make([]float64, len(got)), b); err != nil || len(into) != len(got) {
			t.Fatalf("decode into an exact destination: %d values, %v", len(into), err)
		}
		// And the writer is the reference's inverse: same bytes.
		if enc, ref := EncodeValues(nil, got), refEncodeValues(nil, got); !bytes.Equal(enc, ref) {
			t.Fatalf("re-encoding %d values: %d bytes differ from the reference's %d", len(got), len(enc), len(ref))
		}
	})
}
