package encoding

// Codec selects the pair of timestamp/value encodings used by a chunk. The
// codec id is stored in the chunk header so files remain self-describing.
type Codec uint8

const (
	// CodecGorilla: delta-of-delta timestamps + Gorilla XOR values. Default.
	CodecGorilla Codec = 0
	// CodecPlain: raw 8-byte timestamps and values.
	CodecPlain Codec = 1
)

// Valid reports whether c names a known codec.
func (c Codec) Valid() bool { return c == CodecGorilla || c == CodecPlain }

// String names the codec for diagnostics.
func (c Codec) String() string {
	switch c {
	case CodecGorilla:
		return "gorilla"
	case CodecPlain:
		return "plain"
	default:
		return "unknown"
	}
}

// EncodeTimesWith dispatches to the codec's timestamp encoder.
func (c Codec) EncodeTimesWith(dst []byte, ts []int64) []byte {
	if c == CodecPlain {
		return EncodeTimesPlain(dst, ts)
	}
	return EncodeTimes(dst, ts)
}

// DecodeTimesWith dispatches to the codec's timestamp decoder.
func (c Codec) DecodeTimesWith(b []byte) ([]int64, []byte, error) { return c.DecodeTimesInto(nil, b) }

// DecodeTimesInto dispatches to the codec's timestamp decoder with a
// caller-owned destination (see DecodeValuesInto for the contract).
func (c Codec) DecodeTimesInto(dst []int64, b []byte) ([]int64, []byte, error) {
	if c == CodecPlain {
		return DecodeTimesPlainInto(dst, b)
	}
	return DecodeTimesInto(dst, b)
}

// EncodeValuesWith dispatches to the codec's value encoder.
func (c Codec) EncodeValuesWith(dst []byte, vs []float64) []byte {
	if c == CodecPlain {
		return EncodeValuesPlain(dst, vs)
	}
	return EncodeValues(dst, vs)
}

// DecodeValuesWith dispatches to the codec's value decoder.
func (c Codec) DecodeValuesWith(b []byte) ([]float64, []byte, error) {
	return c.DecodeValuesInto(nil, b)
}

// DecodeValuesInto dispatches to the codec's value decoder with a
// caller-owned destination (see DecodeValuesInto for the contract).
func (c Codec) DecodeValuesInto(dst []float64, b []byte) ([]float64, []byte, error) {
	if c == CodecPlain {
		return DecodeValuesPlainInto(dst, b)
	}
	return DecodeValuesInto(dst, b)
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
