package encoding

// Codec names the one encoding pair chunk files hold: delta-of-delta
// timestamps and Gorilla XOR values. Its byte in the chunk header and the
// footer is always 0; the methods pass straight through to the package's
// functions.
type Codec uint8

// CodecGorilla: delta-of-delta timestamps + Gorilla XOR values.
const CodecGorilla Codec = 0

// EncodeTimesWith encodes ts as EncodeTimes does.
func (c Codec) EncodeTimesWith(dst []byte, ts []int64) []byte { return EncodeTimes(dst, ts) }

// DecodeTimesWith decodes a block as DecodeTimesInto does, into a fresh
// slice.
func (c Codec) DecodeTimesWith(b []byte) ([]int64, []byte, error) { return DecodeTimesInto(nil, b) }

// EncodeValuesWith encodes vs as EncodeValues does.
func (c Codec) EncodeValuesWith(dst []byte, vs []float64) []byte { return EncodeValues(dst, vs) }

// DecodeValuesWith decodes a block as DecodeValuesInto does, into a fresh
// slice.
func (c Codec) DecodeValuesWith(b []byte) ([]float64, []byte, error) {
	return DecodeValuesInto(nil, b)
}

// blockCount parses the element count every block starts with. A decoder
// handed a destination (non-nil dst) decodes exactly len(dst) elements, so
// a block whose count differs is corrupt.
func blockCount[T any](b []byte, dst []T) (uint64, []byte, error) {
	count, b, err := Uvarint(b)
	if err != nil {
		return 0, nil, err
	}
	if dst != nil && count != uint64(len(dst)) {
		return 0, nil, corruptf("block holds %d elements, want %d", count, len(dst))
	}
	return count, b, nil
}
