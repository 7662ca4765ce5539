package viz

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"hash/crc32"
	"io"
	"sync"
)

// A canvas is a two-colour image whose rows already have the layout of a
// 1-bit PNG scanline, so WritePNG only frames them: signature, IHDR, one
// IDAT and IEND. Grayscale 0 is black, so lit bits are written inverted.

const pngSignature = "\x89PNG\r\n\x1a\n"

// pngEncoder is one encode's scratch, pooled with its zlib writer so a
// render reuses the compressor's tables and both buffers.
type pngEncoder struct {
	raw []byte       // the filtered scanlines
	out bytes.Buffer // the whole file
	zw  *zlib.Writer // compresses raw into out
}

var pngEncoders = sync.Pool{New: func() any {
	e := new(pngEncoder)
	e.zw, _ = zlib.NewWriterLevel(&e.out, zlib.BestSpeed) // a valid level: no error
	return e
}}

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

	e.out.Reset()
	e.out.WriteString(pngSignature)
	var ihdr [13]byte
	binary.BigEndian.PutUint32(ihdr[0:], uint32(c.W))
	binary.BigEndian.PutUint32(ihdr[4:], uint32(c.H))
	ihdr[8] = 1 // bit depth; colour type 0 (grayscale), deflate, filter method 0, no interlace
	start := e.beginChunk("IHDR")
	e.out.Write(ihdr[:])
	e.endChunk(start)

	start = e.beginChunk("IDAT")
	e.zw.Reset(&e.out)
	if _, err := e.zw.Write(raw); err != nil {
		return err
	}
	if err := e.zw.Close(); err != nil {
		return err
	}
	e.endChunk(start)

	e.endChunk(e.beginChunk("IEND"))
	_, err := w.Write(e.out.Bytes())
	return err
}

// beginChunk writes a chunk's length placeholder and type, and returns the
// chunk's offset for endChunk.
func (e *pngEncoder) beginChunk(typ string) int {
	start := e.out.Len()
	e.out.WriteString("\x00\x00\x00\x00")
	e.out.WriteString(typ)
	return start
}

// endChunk fills in the length of the chunk at start, whose data has been
// written since, and appends its CRC over type and data.
func (e *pngEncoder) endChunk(start int) {
	chunk := e.out.Bytes()[start:]
	binary.BigEndian.PutUint32(chunk, uint32(len(chunk)-8))
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(chunk[4:]))
	e.out.Write(crc[:])
}
