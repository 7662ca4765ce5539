package viz

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"math/bits"
	"sync"
)

// A canvas is a two-colour image whose rows already have the layout of a
// 1-bit PNG scanline, so WritePNG only frames them: signature, IHDR, one
// IDAT and IEND. Grayscale 0 is black, so lit bits are written inverted.
//
// The IDAT is a zlib stream holding one fixed-Huffman deflate block (RFC
// 1951 §3.2.6) written for line charts: a row is nearly always the row
// above it with a few pixels changed, so every row after the first is coded
// as matches at distance one scanline ("same bytes as the row above") and
// literals only where the rows differ. The first row, which has no row
// above, is coded as literals and distance-1 runs.

const pngSignature = "\x89PNG\r\n\x1a\n"

// pngEncoder is one encode's scratch, pooled so a render reuses both
// buffers.
type pngEncoder struct {
	raw []byte // the filtered scanlines
	out []byte // the whole file
}

var pngEncoders = sync.Pool{New: func() any { return new(pngEncoder) }}

// WritePNG encodes the canvas as a black-on-white, 1-bit grayscale PNG.
func (c *Canvas) WritePNG(w io.Writer) error {
	e := pngEncoders.Get().(*pngEncoder)
	defer pngEncoders.Put(e)

	// Each scanline is filter type 0 (None) and the row's ⌈W/8⌉ bytes.
	rowBytes := (c.W + 7) / 8
	raw := e.raw[:0]
	for y := 0; y < c.H; y++ {
		end := len(raw) + 1 + rowBytes
		raw = append(raw, 0)
		for _, word := range c.bits[y*c.stride : (y+1)*c.stride] {
			raw = binary.BigEndian.AppendUint64(raw, ^word)
		}
		raw = raw[:end]
	}
	e.raw = raw

	out := append(e.out[:0], pngSignature...)
	var ihdr [13]byte
	binary.BigEndian.PutUint32(ihdr[0:], uint32(c.W))
	binary.BigEndian.PutUint32(ihdr[4:], uint32(c.H))
	ihdr[8] = 1 // bit depth; colour type 0 (grayscale), deflate, filter method 0, no interlace
	start := len(out)
	out = append(beginChunk(out, "IHDR"), ihdr[:]...)
	out = endChunk(out, start)

	start = len(out)
	out = beginChunk(out, "IDAT")
	out = append(out, 0x78, 0x01) // zlib header: deflate, 32 KiB window, no dictionary
	out = deflateScanlines(out, raw, 1+rowBytes)
	out = binary.BigEndian.AppendUint32(out, adler32(raw))
	out = endChunk(out, start)

	start = len(out)
	out = endChunk(beginChunk(out, "IEND"), start)
	e.out = out
	_, err := w.Write(out)
	return err
}

// beginChunk appends a chunk's length placeholder and type; the chunk
// starts at the length's offset, which endChunk takes.
func beginChunk(out []byte, typ string) []byte {
	return append(append(out, 0, 0, 0, 0), typ...)
}

// endChunk fills in the length of the chunk at start, whose data has been
// appended since, and appends its CRC over type and data.
func endChunk(out []byte, start int) []byte {
	chunk := out[start:]
	binary.BigEndian.PutUint32(chunk, uint32(len(chunk)-8))
	return binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(chunk[4:]))
}

// maxDistance is the farthest back a deflate match may reach.
const maxDistance = 32768

// deflateScanlines appends raw, made of scanlines of stride bytes each, as
// one final fixed-Huffman deflate block. Row 0 is coded against itself
// (distance-1 runs); every later row against the row above it (distance
// stride). A scanline longer than deflate's window has no usable row above,
// and then every row is coded like row 0.
func deflateScanlines(out, raw []byte, stride int) []byte {
	bw := bitWriter{out: out}
	bw.put(1|1<<1, 3) // BFINAL, BTYPE 01: fixed Huffman codes
	first := stride
	if stride > maxDistance {
		first = len(raw)
	}
	if len(raw) > 0 {
		bw.literal(raw[0])
		bw.copyRuns(raw, 1, first, 1)
		bw.copyRuns(raw, first, len(raw), stride)
	}
	bw.put(uint64(litCode[256]), uint(litBits[256])) // end of block
	return bw.flush()
}

// bitWriter packs deflate's LSB-first bit stream onto out.
type bitWriter struct {
	out  []byte
	acc  uint64
	nacc uint
}

// put appends the low n ≤ 32 bits of b.
func (w *bitWriter) put(b uint64, n uint) {
	w.acc |= b << w.nacc
	w.nacc += n
	if w.nacc >= 32 {
		w.out = binary.LittleEndian.AppendUint32(w.out, uint32(w.acc))
		w.acc >>= 32
		w.nacc -= 32
	}
}

// flush pads the last byte with zero bits and returns the stream.
func (w *bitWriter) flush() []byte {
	for ; w.nacc > 0; w.nacc -= min(w.nacc, 8) {
		w.out = append(w.out, byte(w.acc))
		w.acc >>= 8
	}
	return w.out
}

func (w *bitWriter) literal(b byte) { w.put(uint64(litCode[b]), uint(litBits[b])) }

// copyRuns codes raw[from:to] as matches at distance dist wherever at least
// three bytes repeat the bytes dist back, and as literals elsewhere. It
// reads raw[from-dist:], which must already have been coded.
func (w *bitWriter) copyRuns(raw []byte, from, to, dist int) {
	dcode, dbits := distCode(dist)
	for p := from; p < to; {
		n := matchLen(raw[p:to], raw[p-dist:])
		if n < minMatch {
			w.literal(raw[p])
			p++
			continue
		}
		p += n
		for n > 0 {
			l := min(n, maxMatch)
			if r := n - l; r > 0 && r < minMatch {
				l = n - minMatch // leave a codable remainder
			}
			w.put(uint64(lenCode[l])|dcode<<lenBits[l], uint(lenBits[l])+dbits)
			n -= l
		}
	}
}

// matchLen returns how many leading bytes of a equal those of b, b being at
// least as long as a. Eight bytes are compared at a time: the first differing
// byte is the lowest set byte of the XOR of two little-endian loads.
func matchLen(a, b []byte) int {
	n := 0
	for ; n+8 <= len(a); n += 8 {
		if x := binary.LittleEndian.Uint64(a[n:]) ^ binary.LittleEndian.Uint64(b[n:]); x != 0 {
			return n + bits.TrailingZeros64(x)/8
		}
	}
	for ; n < len(a) && a[n] == b[n]; n++ {
	}
	return n
}

const (
	minMatch = 3
	maxMatch = 258
)

// The fixed Huffman code (RFC 1951 §3.2.6), bit-reversed for the LSB-first
// stream. lenCode[l] is the whole coded length l: its symbol's code with the
// extra bits above it, lenBits[l] bits in all.
var (
	litCode [257]uint16
	litBits [257]uint8
	lenCode [maxMatch + 1]uint32
	lenBits [maxMatch + 1]uint8
)

// Length symbols 257..285 and distance codes 0..29: base value and number
// of extra bits.
var (
	lenBase   = [29]uint16{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	lenExtra  = [29]uint8{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	distBase  = [30]uint16{1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577}
	distExtra = [30]uint8{0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13}
)

// fixedCode returns the bit-reversed fixed Huffman code of a literal/length
// symbol and its length.
func fixedCode(sym int) (uint16, uint8) {
	var code, n int
	switch {
	case sym < 144:
		code, n = 0x30+sym, 8
	case sym < 256:
		code, n = 0x190+sym-144, 9
	case sym < 280:
		code, n = sym-256, 7
	default:
		code, n = 0xc0+sym-280, 8
	}
	return bits.Reverse16(uint16(code)) >> (16 - n), uint8(n)
}

func init() {
	for sym := 0; sym <= 256; sym++ {
		litCode[sym], litBits[sym] = fixedCode(sym)
	}
	for s := range lenBase {
		code, n := fixedCode(257 + s)
		last := maxMatch
		if s+1 < len(lenBase) {
			last = int(lenBase[s+1]) - 1
		}
		for l := int(lenBase[s]); l <= last; l++ {
			lenCode[l] = uint32(code) | uint32(l-int(lenBase[s]))<<n
			lenBits[l] = n + lenExtra[s]
		}
	}
}

// distCode returns the coded distance d ≤ maxDistance, the code's five bits
// with the extra bits above them, and its length.
func distCode(d int) (uint64, uint) {
	c := len(distBase) - 1
	for int(distBase[c]) > d {
		c--
	}
	code := uint64(bits.Reverse8(uint8(c)) >> 3)
	return code | uint64(d-int(distBase[c]))<<5, 5 + uint(distExtra[c])
}

// adler32 is hash/adler32's checksum, summed eight bytes at a time. Over a
// block of eight bytes b0..b7, s1 gains Σb and s2 gains 8·s1 + Σ(8-i)·bi;
// both sums are taken in four 16-bit lanes of one multiply, whose top lane
// collects them (no lane can carry: each stays below 2^16).
func adler32(p []byte) uint32 {
	const (
		mod   = 65521
		block = 5552 // the most bytes before s2 can overflow 32 bits; a multiple of 8
		lanes = 0x00ff00ff00ff00ff
	)
	s1, s2 := uint32(1), uint32(0)
	for len(p) > 0 {
		n := min(len(p), block)
		q := p[:n]
		for ; len(q) >= 8; q = q[8:] {
			w := binary.LittleEndian.Uint64(q)
			even, odd := w&lanes, w>>8&lanes
			sum := (even + odd) * 0x0001_0001_0001_0001 >> 48
			weighted := (even*0x0008_0006_0004_0002 + odd*0x0007_0005_0003_0001) >> 48
			s2 += 8*s1 + uint32(weighted)
			s1 += uint32(sum)
		}
		for _, b := range q {
			s1 += uint32(b)
			s2 += s1
		}
		s1 %= mod
		s2 %= mod
		p = p[n:]
	}
	return s2<<16 | s1
}
