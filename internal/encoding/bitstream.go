// Package encoding implements the column codecs used inside chunk files:
// zigzag varints, a delta-of-delta timestamp codec (the analogue of IoTDB's
// TS_2DIFF), a Gorilla XOR codec for float64 values, and plain fallbacks.
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

// bitReader consumes bits written by bitWriter through a 64-bit window
// refilled eight bytes at a time (byte-wise over the last < 8 bytes), so a
// read is a shift and a mask. Running out of bits is noticed at a refill
// and is sticky: the failing read and every later one return 0 and err
// reports ErrCorrupt, which lets a decoder check once after its loop.
type bitReader struct {
	buf       []byte
	pos       int    // next byte to load into the window
	win       uint64 // unread bits, left-aligned
	nwin      uint   // unread bit count in win, 0..64
	exhausted bool   // a read asked for more bits than the stream had
}

// readBit returns the next bit.
func (r *bitReader) readBit() uint64 { return r.readBits(1) }

// readBits returns the next n bits as the low bits of a uint64. n ≤ 64.
func (r *bitReader) readBits(n uint) uint64 {
	if n > r.nwin {
		return r.refillRead(n)
	}
	v := r.win >> (64 - n)
	r.win <<= n
	r.nwin -= n
	return v
}

// refillRead serves a read the window cannot: it drains the window, loads
// the next eight bytes (or what is left) and takes the missing bits from
// them.
func (r *bitReader) refillRead(n uint) uint64 {
	need := n - r.nwin
	hi := r.win >> (64 - r.nwin)
	if len(r.buf)-r.pos >= 8 {
		r.win, r.nwin = binary.BigEndian.Uint64(r.buf[r.pos:]), 64
		r.pos += 8
	} else {
		r.win, r.nwin = 0, 0
		for ; r.pos < len(r.buf); r.pos++ {
			r.win |= uint64(r.buf[r.pos]) << (56 - r.nwin)
			r.nwin += 8
		}
	}
	if need > r.nwin {
		r.win, r.nwin, r.exhausted = 0, 0, true
		return 0
	}
	lo := r.win >> (64 - need)
	r.win <<= need
	r.nwin -= need
	return hi<<need | lo
}

// err reports a stream that ran out of bits as ErrCorrupt.
func (r *bitReader) err() error {
	if r.exhausted {
		return corruptf("bit stream exhausted after %d bytes", len(r.buf))
	}
	return nil
}
