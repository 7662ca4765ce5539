package encoding

// Delta-of-delta timestamp codec (the analogue of IoTDB's TS_2DIFF and of
// Gorilla's timestamp scheme). Sensor timestamps arrive at a nearly fixed
// frequency, so consecutive deltas are nearly equal and the second
// difference is almost always zero; it compresses to about one bit per
// point on regular data while still handling arbitrary gaps.
//
// Layout:
//
//	uvarint count
//	varint  t0            (absent when count == 0)
//	varint  delta0        (absent when count < 2)
//	count-2 zigzag-varint delta-of-deltas

// EncodeTimes appends the encoded form of ts to dst. Timestamps must be in
// increasing order (not enforced here; chunk writers validate).
func EncodeTimes(dst []byte, ts []int64) []byte {
	dst = AppendUvarint(dst, uint64(len(ts)))
	if len(ts) == 0 {
		return dst
	}
	dst = AppendVarint(dst, ts[0])
	if len(ts) == 1 {
		return dst
	}
	prevDelta := ts[1] - ts[0]
	dst = AppendVarint(dst, prevDelta)
	for i := 2; i < len(ts); i++ {
		delta := ts[i] - ts[i-1]
		dst = AppendVarint(dst, delta-prevDelta)
		prevDelta = delta
	}
	return dst
}

// DecodeTimes decodes a block produced by EncodeTimes and returns the
// timestamps along with the remaining buffer.
func DecodeTimes(b []byte) ([]int64, []byte, error) { return DecodeTimesInto(nil, b) }

// DecodeTimesInto is DecodeTimes into caller-owned memory, under the
// contract of DecodeValuesInto: a non-nil dst must have exactly the block's
// count as its length; a nil dst is allocated once the count is known to
// fit the block.
func DecodeTimesInto(dst []int64, b []byte) ([]int64, []byte, error) {
	count, b, err := blockCount(b, dst)
	if err != nil {
		return nil, nil, err
	}
	// Every timestamp costs at least one byte.
	if count > uint64(len(b)) {
		return nil, nil, corruptf("timestamp count %d exceeds the %d bytes of the block", count, len(b))
	}
	if dst == nil {
		dst = make([]int64, count)
	}
	if count == 0 {
		return dst, b, nil
	}
	t, b, err := Varint(b)
	if err != nil {
		return nil, nil, err
	}
	dst[0] = t
	if count == 1 {
		return dst, b, nil
	}
	delta, b, err := Varint(b)
	if err != nil {
		return nil, nil, err
	}
	t += delta
	dst[1] = t
	// On regular data nearly every delta-of-delta is a one-byte varint:
	// those are unzigzagged in place, and only longer ones, or a block
	// ending early, take the general decoder.
	p := 0
	for i := 2; i < len(dst); i++ {
		var dod int64
		if p < len(b) && b[p] < 0x80 {
			u := int64(b[p])
			dod = u>>1 ^ -(u & 1)
			p++
		} else {
			var rest []byte
			if dod, rest, err = Varint(b[p:]); err != nil {
				return nil, nil, err
			}
			p = len(b) - len(rest)
		}
		delta += dod
		t += delta
		dst[i] = t
	}
	return dst, b[p:], nil
}
