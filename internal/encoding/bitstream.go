// Package encoding implements the column codecs used inside chunk files:
// zigzag varints, a delta-of-delta timestamp codec (the analogue of IoTDB's
// TS_2DIFF) and a Gorilla XOR codec for float64 values.
//
// The decode cost of these codecs is part of what the paper's baseline pays
// when it loads and merges whole chunks, so the codecs are real, not stubs.
package encoding

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrCorrupt reports a malformed encoded block.
var ErrCorrupt = errors.New("encoding: corrupt block")

func corruptf(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// bitWriter appends bit fields to a byte buffer, most-significant bit first.
// Bits collect in a 64-bit accumulator that is flushed eight bytes at a
// time; bytes pads the tail with zero bits.
type bitWriter struct {
	buf  []byte
	acc  uint64 // pending bits, right-aligned
	nacc uint   // pending bit count, 0..63
}

// writeBit appends a single bit.
func (w *bitWriter) writeBit(bit uint64) { w.writeBits(bit, 1) }

// writeBits appends the low n bits of v, most significant first. n ≤ 64.
func (w *bitWriter) writeBits(v uint64, n uint) {
	if n < 64 {
		v &= 1<<n - 1
	}
	free := 64 - w.nacc
	if n < free {
		w.acc = w.acc<<n | v
		w.nacc += n
		return
	}
	// The field fills the accumulator: flush it, keep the overflow.
	rest := n - free
	w.buf = binary.BigEndian.AppendUint64(w.buf, w.acc<<free|v>>rest)
	w.acc = v & (1<<rest - 1)
	w.nacc = rest
}

// bytes flushes the pending bits and returns the encoded buffer. The writer
// must not be used afterwards.
func (w *bitWriter) bytes() []byte {
	acc := w.acc << (64 - w.nacc)
	for n := w.nacc; n > 0; n -= min(n, 8) {
		w.buf = append(w.buf, byte(acc>>56))
		acc <<= 8
	}
	return w.buf
}

// bitReader consumes bits written by bitWriter through a bit cursor: a
// read loads the eight bytes holding its first bit, unaligned, and the
// ninth for the bits the shift pushed out, so any field of up to 64 bits
// is one load, a shift and no refill. Only the last eight bytes are read
// byte-wise. Running out of bits is sticky: the failing read and every
// later one return 0 and err reports ErrCorrupt, which lets a decoder
// check once after its loop.
type bitReader struct {
	buf       []byte
	pos       int  // bits consumed
	exhausted bool // a read asked for more bits than the stream had
}

// readBit returns the next bit.
func (r *bitReader) readBit() uint64 { return r.readBits(1) }

// readBits returns the next n bits as the low bits of a uint64. n ≤ 64.
func (r *bitReader) readBits(n uint) uint64 {
	if r.pos>>3+8 >= len(r.buf) {
		return r.readTail(n)
	}
	v := r.peek() >> (64 - n)
	r.pos += int(n)
	return v
}

// peek returns the 64 bits from the cursor on, left-aligned, without
// consuming them. The caller makes sure the nine bytes from the cursor's
// byte are in the buffer.
func (r *bitReader) peek() uint64 {
	at, off := r.pos>>3, uint(r.pos&7)
	return binary.BigEndian.Uint64(r.buf[at:])<<off | uint64(r.buf[at+8])>>(8-off)
}

// readTail serves a read among the last eight bytes, where the cursor
// cannot load nine, and notices the stream running out.
func (r *bitReader) readTail(n uint) uint64 {
	if r.exhausted || r.pos+int(n) > 8*len(r.buf) {
		r.pos, r.exhausted = 8*len(r.buf), true
		return 0
	}
	var w uint64
	for i, b := range r.buf[r.pos>>3:] {
		w |= uint64(b) << (56 - 8*i)
	}
	v := w << (r.pos & 7) >> (64 - n)
	r.pos += int(n)
	return v
}

// err reports a stream that ran out of bits as ErrCorrupt.
func (r *bitReader) err() error {
	if r.exhausted {
		return corruptf("bit stream exhausted after %d bytes", len(r.buf))
	}
	return nil
}
