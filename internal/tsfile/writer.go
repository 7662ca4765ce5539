// Package tsfile implements the on-disk chunk file format, the Go analogue
// of IoTDB's TsFile in Fig. 15 of the paper: a sequence of immutable chunks
// (each a compressed segment of one series) followed by a footer holding
// every chunk's metadata — version number, point count, the four
// representation points FP/LP/BP/TP and the step-regression model of its
// timestamps (§3.5) — so queries can read metadata without touching chunk
// data, and bind the chunk index without fitting it.
//
// Timestamps and values are encoded as two separate blocks with separate
// checksums, so the timestamp block can be fetched and decoded alone; the
// M4-LSM operator uses that partial read for BP/TP existence probes.
//
// File layout:
//
//	"M4TS" 0x01                                 file magic + format version
//	chunk*                                      see writeChunk
//	footer: uvarint count, meta*                see appendMeta
//	uint32 footerCRC | uint64 footerLen | "M4F2"
//
// "M4F2" names the footer's format: 2 added the step model to each chunk's
// metadata. The chunks themselves are laid out as in format 1, whose footer
// ended "M4TF"; there is no reader for that footer.
//
// The package also provides the length+CRC framed append-only record log
// used by the delete sidecar (.mods) and the engine WAL.
package tsfile

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"

	"m4lsm/internal/encoding"
	"m4lsm/internal/series"
	"m4lsm/internal/stepreg"
	"m4lsm/internal/storage"
)

var (
	fileMagic   = []byte{'M', '4', 'T', 'S', 0x01}
	footerMagic = []byte{'M', '4', 'F', '2'}
	// legacyFooterMagic ends a format-1 file, whose metadata has no model.
	legacyFooterMagic = []byte{'M', '4', 'T', 'F'}
)

// ErrCorrupt reports a structurally invalid chunk file.
var ErrCorrupt = errors.New("tsfile: corrupt file")

// SetAside renames a file that failed validation to an unused quarantine
// name — path.bad, or path.bad.1, path.bad.2, ... when earlier crashes
// already left one — and returns it. A previously quarantined file is
// never overwritten: it may be the only copy of data an operator wants to
// salvage by hand.
func SetAside(path string) (string, error) {
	for i := 0; ; i++ {
		bad := path + ".bad"
		if i > 0 {
			bad = fmt.Sprintf("%s.bad.%d", path, i)
		}
		if _, err := os.Lstat(bad); errors.Is(err, os.ErrNotExist) {
			return bad, os.Rename(path, bad)
		} else if err != nil {
			return "", err
		}
	}
}

// Writer creates a chunk file. Chunks are appended with WriteChunk and the
// footer is written by Close; a writer whose Close failed leaves no valid
// file behind (the footer magic will be missing).
type Writer struct {
	f      *os.File
	w      *bufio.Writer
	offset int64
	metas  []storage.ChunkMeta
	closed bool
	// Encode scratch, reused from chunk to chunk: a flush writes hundreds.
	times, values []byte
}

// Create opens path for writing and emits the file header.
func Create(path string) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("tsfile: %w", err)
	}
	w := &Writer{f: f, w: bufio.NewWriterSize(f, 1<<16)}
	if _, err := w.w.Write(fileMagic); err != nil {
		f.Close()
		return nil, fmt.Errorf("tsfile: write magic: %w", err)
	}
	w.offset = int64(len(fileMagic))
	return w, nil
}

// WriteChunk appends one chunk for seriesID with the given version and
// codec. data must be non-empty and strictly increasing in time. The
// returned metadata, which carries the step model fitted here, is also
// recorded for the footer.
func (w *Writer) WriteChunk(seriesID string, version storage.Version, codec encoding.Codec, data series.Series) (storage.ChunkMeta, error) {
	if w.closed {
		return storage.ChunkMeta{}, errors.New("tsfile: writer closed")
	}
	if err := data.Validate(); err != nil {
		return storage.ChunkMeta{}, fmt.Errorf("tsfile: chunk %s v%d: %w", seriesID, version, err)
	}
	first, last, bottom, top, ok := storage.ComputeMeta(data)
	if !ok {
		return storage.ChunkMeta{}, fmt.Errorf("tsfile: chunk %s v%d: empty", seriesID, version)
	}
	if !codec.Valid() {
		return storage.ChunkMeta{}, fmt.Errorf("tsfile: chunk %s v%d: bad codec %d", seriesID, version, codec)
	}

	cols := data.Columns()
	w.times = codec.EncodeTimesWith(w.times[:0], cols.Times())
	w.values = codec.EncodeValuesWith(w.values[:0], cols.Values())
	timesBlock, valuesBlock := w.times, w.values

	var hdr []byte
	hdr = encoding.AppendUvarint(hdr, uint64(len(seriesID)))
	hdr = append(hdr, seriesID...)
	hdr = encoding.AppendUvarint(hdr, uint64(version))
	hdr = append(hdr, byte(codec))
	hdr = encoding.AppendUvarint(hdr, uint64(len(data)))
	hdr = encoding.AppendUvarint(hdr, uint64(len(timesBlock)))
	hdr = encoding.AppendUvarint(hdr, uint64(len(valuesBlock)))
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(timesBlock))
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(valuesBlock))
	if len(hdr) > math.MaxInt32 {
		return storage.ChunkMeta{}, fmt.Errorf("tsfile: chunk %s v%d: %d-byte header", seriesID, version, len(hdr))
	}

	meta := storage.ChunkMeta{
		SeriesID:  seriesID,
		Version:   version,
		Count:     int64(len(data)),
		Codec:     codec,
		First:     first,
		Last:      last,
		Bottom:    bottom,
		Top:       top,
		Offset:    w.offset,
		HeaderLen: int32(len(hdr)),
		TimesLen:  int64(len(timesBlock)),
		ValuesLen: int64(len(valuesBlock)),
		Step:      stepreg.Fit(cols.Times()),
	}
	for _, b := range [][]byte{hdr, timesBlock, valuesBlock} {
		if _, err := w.w.Write(b); err != nil {
			return storage.ChunkMeta{}, fmt.Errorf("tsfile: write chunk: %w", err)
		}
		w.offset += int64(len(b))
	}
	w.metas = append(w.metas, meta)
	return meta, nil
}

// Metas returns the metadata of every chunk written so far.
func (w *Writer) Metas() []storage.ChunkMeta { return w.metas }

// Close writes the footer and syncs the file. The file is unreadable until
// Close succeeds.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	var footer []byte
	footer = encoding.AppendUvarint(footer, uint64(len(w.metas)))
	for _, m := range w.metas {
		footer = appendMeta(footer, m)
	}
	var tail []byte
	tail = binary.LittleEndian.AppendUint32(tail, crc32.ChecksumIEEE(footer))
	tail = binary.LittleEndian.AppendUint64(tail, uint64(len(footer)))
	tail = append(tail, footerMagic...)
	if _, err := w.w.Write(footer); err != nil {
		w.f.Close()
		return fmt.Errorf("tsfile: write footer: %w", err)
	}
	if _, err := w.w.Write(tail); err != nil {
		w.f.Close()
		return fmt.Errorf("tsfile: write footer tail: %w", err)
	}
	if err := w.w.Flush(); err != nil {
		w.f.Close()
		return fmt.Errorf("tsfile: flush: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return fmt.Errorf("tsfile: sync: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("tsfile: close: %w", err)
	}
	return nil
}

// Crash abandons the writer the way a process kill would: the bytes
// buffered so far are flushed to the file, no footer is written, and the
// unreadable partial file is left on disk. Crash-recovery tests use it to
// produce the exact on-disk states torn flushes leave behind; recovery then
// quarantines the file and replays the WAL.
func (w *Writer) Crash() error {
	if w.closed {
		return nil
	}
	w.closed = true
	w.w.Flush()
	return w.f.Close()
}

// Abort discards the writer without producing a readable file.
func (w *Writer) Abort() error {
	if w.closed {
		return nil
	}
	w.closed = true
	name := w.f.Name()
	w.f.Close()
	return os.Remove(name)
}

// appendMeta serializes one footer metadata record.
func appendMeta(dst []byte, m storage.ChunkMeta) []byte {
	dst = encoding.AppendUvarint(dst, uint64(len(m.SeriesID)))
	dst = append(dst, m.SeriesID...)
	dst = encoding.AppendUvarint(dst, uint64(m.Version))
	dst = append(dst, byte(m.Codec))
	dst = encoding.AppendUvarint(dst, uint64(m.Count))
	dst = encoding.AppendUvarint(dst, uint64(m.Offset))
	dst = encoding.AppendUvarint(dst, uint64(m.HeaderLen))
	dst = encoding.AppendUvarint(dst, uint64(m.TimesLen))
	dst = encoding.AppendUvarint(dst, uint64(m.ValuesLen))
	for _, p := range []series.Point{m.First, m.Last, m.Bottom, m.Top} {
		dst = encoding.AppendVarint(dst, p.T)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.V))
	}
	return m.Step.AppendBinary(dst)
}

// parseMeta inverts appendMeta.
func parseMeta(b []byte) (storage.ChunkMeta, []byte, error) {
	var m storage.ChunkMeta
	idLen, b, err := encoding.Uvarint(b)
	if err != nil {
		return m, nil, err
	}
	if idLen > uint64(len(b)) {
		return m, nil, fmt.Errorf("%w: series id length %d", ErrCorrupt, idLen)
	}
	m.SeriesID = string(b[:idLen])
	b = b[idLen:]
	var headerLen int64
	fields := []*int64{&m.Count, &m.Offset, &headerLen, &m.TimesLen, &m.ValuesLen}
	ver, b, err := encoding.Uvarint(b)
	if err != nil {
		return m, nil, err
	}
	m.Version = storage.Version(ver)
	if len(b) < 1 {
		return m, nil, fmt.Errorf("%w: missing codec", ErrCorrupt)
	}
	m.Codec = encoding.Codec(b[0])
	b = b[1:]
	if !m.Codec.Valid() {
		return m, nil, fmt.Errorf("%w: unknown codec %d", ErrCorrupt, m.Codec)
	}
	for _, f := range fields {
		u, rest, err := encoding.Uvarint(b)
		if err != nil {
			return m, nil, err
		}
		*f = int64(u)
		b = rest
	}
	if headerLen < 0 || headerLen > math.MaxInt32 {
		return m, nil, fmt.Errorf("%w: chunk header length %d", ErrCorrupt, headerLen)
	}
	m.HeaderLen = int32(headerLen)
	for _, p := range []*series.Point{&m.First, &m.Last, &m.Bottom, &m.Top} {
		t, rest, err := encoding.Varint(b)
		if err != nil {
			return m, nil, err
		}
		b = rest
		if len(b) < 8 {
			return m, nil, fmt.Errorf("%w: truncated point value", ErrCorrupt)
		}
		p.T = t
		p.V = math.Float64frombits(binary.LittleEndian.Uint64(b))
		b = b[8:]
	}
	if m.Step, b, err = stepreg.DecodeModel(b, m.Count); err != nil {
		return m, nil, fmt.Errorf("%w: step model (%v)", ErrCorrupt, err)
	}
	return m, b, nil
}
