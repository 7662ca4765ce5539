package encoding

import (
	"encoding/binary"
	"math"
)

// Plain codecs store 8 bytes per element. They exist as the uncompressed
// baseline for the codec ablation bench and as a debugging aid.

// EncodeTimesPlain appends count + raw little-endian timestamps.
func EncodeTimesPlain(dst []byte, ts []int64) []byte {
	dst = AppendUvarint(dst, uint64(len(ts)))
	for _, t := range ts {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(t))
	}
	return dst
}

// DecodeTimesPlainInto decodes a block produced by EncodeTimesPlain, under
// the dst contract of DecodeValuesInto.
func DecodeTimesPlainInto(dst []int64, b []byte) ([]int64, []byte, error) {
	count, b, err := blockCount(b, dst)
	if err != nil {
		return nil, nil, err
	}
	if count > uint64(len(b))/8 { // by division: count*8 overflows on a damaged count
		return nil, nil, corruptf("plain block short: %d elements in %d bytes", count, len(b))
	}
	if dst == nil {
		dst = make([]int64, count)
	}
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return dst, b[count*8:], nil
}

// EncodeValuesPlain appends count + raw little-endian float64 bits.
func EncodeValuesPlain(dst []byte, vs []float64) []byte {
	dst = AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// DecodeValuesPlainInto decodes a block produced by EncodeValuesPlain,
// under the dst contract of DecodeValuesInto.
func DecodeValuesPlainInto(dst []float64, b []byte) ([]float64, []byte, error) {
	count, b, err := blockCount(b, dst)
	if err != nil {
		return nil, nil, err
	}
	if count > uint64(len(b))/8 { // by division: count*8 overflows on a damaged count
		return nil, nil, corruptf("plain block short: %d elements in %d bytes", count, len(b))
	}
	if dst == nil {
		dst = make([]float64, count)
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return dst, b[count*8:], nil
}
