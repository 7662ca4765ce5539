package encoding

import (
	"math"
	"math/bits"
)

// Gorilla XOR codec for float64 values (Pelkonen et al., VLDB'15), the
// scheme used by commodity time-series stores for slowly varying sensor
// readings. Each value is XORed with its predecessor; a zero XOR costs one
// bit, a XOR inside the previous leading/trailing-zero window costs the
// meaningful bits plus two control bits, otherwise 5+6 bits of window
// description are spent.
//
// Layout:
//
//	uvarint count
//	bit stream: first value as 64 raw bits, then per value:
//	  '0'                                  -> same as previous
//	  '10' + meaningful bits               -> fits previous window
//	  '11' + 5b leading + 6b sigbits + sig -> new window

// EncodeValues appends the encoded form of vs to dst.
func EncodeValues(dst []byte, vs []float64) []byte {
	dst = AppendUvarint(dst, uint64(len(vs)))
	if len(vs) == 0 {
		return dst
	}
	// The payload is written straight into dst behind room for its length
	// prefix, sized for the longest payload these values can produce
	// (64 bits, then at most 2+5+6+64 per value); a shorter prefix closes
	// the gap afterwards.
	maxPayload := uint64(8 + (len(vs)-1)*10)
	lenAt := len(dst)
	dst = AppendUvarint(dst, maxPayload)
	payloadAt := len(dst)
	w := bitWriter{buf: dst}
	prev := math.Float64bits(vs[0])
	w.writeBits(prev, 64)
	leading, trailing := uint(65), uint(0) // 65 marks "no window yet"
	for _, v := range vs[1:] {
		cur := math.Float64bits(v)
		xor := cur ^ prev
		prev = cur
		if xor == 0 {
			w.writeBit(0)
			continue
		}
		lz := uint(bits.LeadingZeros64(xor))
		tz := uint(bits.TrailingZeros64(xor))
		if lz >= 32 {
			lz = 31 // 5-bit field
		}
		if leading <= 64 && lz >= leading && tz >= trailing {
			// Fits inside the previous window: control bits '10'.
			w.writeBits(0b10, 2)
			w.writeBits(xor>>trailing, 64-leading-trailing)
			continue
		}
		leading, trailing = lz, tz
		n := 64 - leading - trailing
		// Control bits '11', 5 bits of leading, n-1 (n is in [1, 64]) in 6.
		w.writeBits(0b11<<11|uint64(leading)<<6|uint64(n-1), 13)
		w.writeBits(xor>>trailing, n)
	}
	dst = w.bytes()
	payload := dst[payloadAt:]
	dst = AppendUvarint(dst[:lenAt], uint64(len(payload)))
	if len(dst) < payloadAt {
		dst = append(dst, payload...)
	} else {
		dst = dst[:payloadAt+len(payload)]
	}
	return dst
}

// DecodeValues decodes a block produced by EncodeValues and returns the
// values along with the remaining buffer.
func DecodeValues(b []byte) ([]float64, []byte, error) { return DecodeValuesInto(nil, b) }

// DecodeValuesInto is DecodeValues into caller-owned memory: a non-nil dst
// must have exactly the block's count as its length (a chunk reader passes
// the count its metadata promises) and is returned filled; a nil dst is
// allocated, after the count has been checked against what the payload can
// hold, so a damaged count cannot ask for more memory than the block
// justifies.
func DecodeValuesInto(dst []float64, b []byte) ([]float64, []byte, error) {
	count, b, err := blockCount(b, dst)
	if err != nil {
		return nil, nil, err
	}
	if count == 0 {
		if dst == nil {
			dst = []float64{}
		}
		return dst, b, nil
	}
	plen, b, err := Uvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if plen > uint64(len(b)) {
		return nil, nil, corruptf("value payload %d exceeds buffer %d", plen, len(b))
	}
	// The first value costs 64 bits and every later one at least one.
	if plen < 8 || count-1 > 8*plen-64 {
		return nil, nil, corruptf("value count %d exceeds what %d payload bytes can hold", count, plen)
	}
	if dst == nil {
		dst = make([]float64, count)
	}
	// The loop cannot outrun the payload by more than the count allows (an
	// exhausted reader returns zeros, which decode as "same as previous"),
	// so exhaustion is checked once, after it.
	r := bitReader{buf: b[:plen]}
	prev := r.readBits(64)
	dst[0] = math.Float64frombits(prev)
	var leading, trailing uint
	for i := 1; i < len(dst); i++ {
		// A value takes at most 2+11+64 bits, so while the cursor's byte and
		// ten more are in the payload none of its reads can run out: its
		// control bits, its window and, when they fit, its meaningful bits
		// come from one peek. Near the end it is read field by field, which
		// is where running out is noticed.
		if r.pos>>3+10 < len(r.buf) {
			w := r.peek()
			if w>>63 == 0 {
				r.pos++
				dst[i] = math.Float64frombits(prev)
				continue
			}
			used := uint(2)
			if w>>62 == 0b11 {
				leading = uint(w>>57) & 31
				n := uint(w>>51)&63 + 1
				if leading+n > 64 {
					return nil, nil, corruptf("window leading=%d sig=%d", leading, n)
				}
				trailing = 64 - leading - n
				used = 13
			}
			sig := 64 - leading - trailing
			if used+sig <= 64 {
				prev ^= w << used >> (64 - sig) << trailing
				r.pos += int(used + sig)
			} else {
				r.pos += int(used)
				prev ^= r.readBits(sig) << trailing
			}
			dst[i] = math.Float64frombits(prev)
			continue
		}
		if r.readBit() == 0 {
			dst[i] = math.Float64frombits(prev)
			continue
		}
		if r.readBit() == 1 {
			win := r.readBits(11)
			leading = uint(win >> 6)
			n := uint(win&63) + 1
			if leading+n > 64 {
				return nil, nil, corruptf("window leading=%d sig=%d", leading, n)
			}
			trailing = 64 - leading - n
		}
		prev ^= r.readBits(64-leading-trailing) << trailing
		dst[i] = math.Float64frombits(prev)
	}
	if err := r.err(); err != nil {
		return nil, nil, err
	}
	return dst, b[plen:], nil
}
