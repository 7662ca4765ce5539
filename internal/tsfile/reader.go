package tsfile

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"m4lsm/internal/encoding"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
)

// Reader opens a closed chunk file for metadata and chunk reads. It is the
// MetadataReader + DataReader pair of Fig. 15: Open parses only the footer;
// chunk contents are fetched on demand through ReadChunk/ReadTimes.
// A Reader is safe for concurrent use (reads use ReadAt).
type Reader struct {
	ra     io.ReaderAt
	size   int64
	closer io.Closer // nil for readers not owning a file handle
	path   string
	metas  []storage.ChunkMeta
}

// Open validates the file framing and loads the chunk metadata table.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("tsfile: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("tsfile: %w", err)
	}
	r := &Reader{ra: f, size: fi.Size(), closer: f, path: path}
	if err := r.readFooter(); err != nil {
		f.Close()
		return nil, fmt.Errorf("tsfile: open %s: %w", path, err)
	}
	return r, nil
}

// OpenReaderAt parses a chunk file served by an arbitrary io.ReaderAt
// (used by tests and fault injection). name only labels errors.
func OpenReaderAt(ra io.ReaderAt, size int64, name string) (*Reader, error) {
	r := &Reader{ra: ra, size: size, path: name}
	if err := r.readFooter(); err != nil {
		return nil, fmt.Errorf("tsfile: open %s: %w", name, err)
	}
	return r, nil
}

func (r *Reader) readFooter() error {
	size := r.size
	const tailLen = 4 + 8 + 4 // crc + footerLen + magic
	if size < int64(len(fileMagic))+tailLen {
		return fmt.Errorf("%w: file too small (%d bytes)", ErrCorrupt, size)
	}
	head := make([]byte, len(fileMagic))
	if _, err := r.ra.ReadAt(head, 0); err != nil {
		return err
	}
	if string(head) != string(fileMagic) {
		return fmt.Errorf("%w: bad file magic", ErrCorrupt)
	}
	tail := make([]byte, tailLen)
	if _, err := r.ra.ReadAt(tail, size-tailLen); err != nil {
		return err
	}
	if string(tail[12:]) != string(footerMagic) {
		return fmt.Errorf("%w: bad footer magic (file not closed?)", ErrCorrupt)
	}
	wantCRC := binary.LittleEndian.Uint32(tail[:4])
	footerLen := int64(binary.LittleEndian.Uint64(tail[4:12]))
	footerOff := size - tailLen - footerLen
	if footerLen < 0 || footerOff < int64(len(fileMagic)) {
		return fmt.Errorf("%w: bad footer length %d", ErrCorrupt, footerLen)
	}
	footer := make([]byte, footerLen)
	if _, err := r.ra.ReadAt(footer, footerOff); err != nil {
		return err
	}
	if crc32.ChecksumIEEE(footer) != wantCRC {
		return fmt.Errorf("%w: footer checksum mismatch", ErrCorrupt)
	}
	count, footer, err := encoding.Uvarint(footer)
	if err != nil {
		return err
	}
	metas := make([]storage.ChunkMeta, 0, count)
	for i := uint64(0); i < count; i++ {
		var m storage.ChunkMeta
		m, footer, err = parseMeta(footer)
		if err != nil {
			return fmt.Errorf("meta %d: %w", i, err)
		}
		metas = append(metas, m)
	}
	if len(footer) != 0 {
		return fmt.Errorf("%w: %d trailing footer bytes", ErrCorrupt, len(footer))
	}
	r.metas = metas
	return nil
}

// Metas returns the metadata of every chunk in the file, in write order.
// The caller must not modify the returned slice.
func (r *Reader) Metas() []storage.ChunkMeta { return r.metas }

// Path returns the file path.
func (r *Reader) Path() string { return r.path }

// Close releases the file handle, if the reader owns one.
func (r *Reader) Close() error {
	if r.closer == nil {
		return nil
	}
	return r.closer.Close()
}

// readBlocks fetches header + timestamp block and optionally the value
// block of a chunk, verifying checksums.
func (r *Reader) readBlocks(meta storage.ChunkMeta, withValues bool) (times, values []byte, err error) {
	n := meta.HeaderLen + meta.TimesLen
	if withValues {
		n += meta.ValuesLen
	}
	buf := make([]byte, n)
	if _, err := r.ra.ReadAt(buf, meta.Offset); err != nil {
		return nil, nil, fmt.Errorf("read chunk at %d: %w", meta.Offset, err)
	}
	hdr := buf[:meta.HeaderLen]
	// The two block CRCs are the last 8 bytes of the header.
	if meta.HeaderLen < 8 {
		return nil, nil, fmt.Errorf("%w: header too short", ErrCorrupt)
	}
	timesCRC := binary.LittleEndian.Uint32(hdr[meta.HeaderLen-8:])
	valuesCRC := binary.LittleEndian.Uint32(hdr[meta.HeaderLen-4:])
	times = buf[meta.HeaderLen : meta.HeaderLen+meta.TimesLen]
	if crc32.ChecksumIEEE(times) != timesCRC {
		return nil, nil, fmt.Errorf("%w: timestamp block checksum mismatch (%s v%d)", ErrCorrupt, meta.SeriesID, meta.Version)
	}
	if withValues {
		values = buf[meta.HeaderLen+meta.TimesLen:]
		if crc32.ChecksumIEEE(values) != valuesCRC {
			return nil, nil, fmt.Errorf("%w: value block checksum mismatch (%s v%d)", ErrCorrupt, meta.SeriesID, meta.Version)
		}
	}
	return times, values, nil
}

// ReadChunk implements storage.ChunkSource.
func (r *Reader) ReadChunk(meta storage.ChunkMeta) (series.Series, error) {
	timesBlock, valuesBlock, err := r.readBlocks(meta, true)
	if err != nil {
		return nil, err
	}
	ts, rest, err := meta.Codec.DecodeTimesWith(timesBlock)
	if err != nil || len(rest) != 0 {
		return nil, fmt.Errorf("%w: timestamp block decode (%v)", ErrCorrupt, err)
	}
	vs, rest, err := meta.Codec.DecodeValuesWith(valuesBlock)
	if err != nil || len(rest) != 0 {
		return nil, fmt.Errorf("%w: value block decode (%v)", ErrCorrupt, err)
	}
	if int64(len(ts)) != meta.Count || len(ts) != len(vs) {
		return nil, fmt.Errorf("%w: count mismatch: meta %d, times %d, values %d", ErrCorrupt, meta.Count, len(ts), len(vs))
	}
	return series.FromColumns(ts, vs), nil
}

// ReadTimes implements storage.ChunkSource: it fetches and decodes only the
// timestamp block.
func (r *Reader) ReadTimes(meta storage.ChunkMeta) ([]int64, error) {
	timesBlock, _, err := r.readBlocks(meta, false)
	if err != nil {
		return nil, err
	}
	ts, rest, err := meta.Codec.DecodeTimesWith(timesBlock)
	if err != nil || len(rest) != 0 {
		return nil, fmt.Errorf("%w: timestamp block decode (%v)", ErrCorrupt, err)
	}
	if int64(len(ts)) != meta.Count {
		return nil, fmt.Errorf("%w: count mismatch: meta %d, times %d", ErrCorrupt, meta.Count, len(ts))
	}
	return ts, nil
}

var _ storage.ChunkSource = (*Reader)(nil)
