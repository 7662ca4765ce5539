package tsfile

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"m4lsm/internal/encoding"
	"m4lsm/internal/series"
	"m4lsm/internal/slicepool"
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
	r, err := OpenReaderAt(f, fi.Size(), path)
	if err != nil {
		f.Close()
		return nil, err
	}
	r.closer = f
	return r, nil
}

// OpenReaderAt parses a chunk file served by an io.ReaderAt of the given
// size: Open's file, or bytes held in memory. name only labels errors.
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
	if string(tail[12:]) == string(legacyFooterMagic) {
		return fmt.Errorf("%w: footer format 1 (before step models) has no reader", ErrCorrupt)
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

// blockBufs recycles the raw (still encoded) bytes of a chunk between
// loads. A buffer's lifetime provably ends inside the Read call that took
// it: the decoders copy every value out of it, so it goes back before they
// return. The decoded columns come from the column pools (colpool.go) and
// go back only through Recycle, from the query that loaded them.
var blockBufs = sync.Pool{New: func() any { return new([]byte) }}

// readBlocks fetches the chunk's header and blocks, through the value block
// when wantValues, into buf (taken from blockBufs by the caller, grown here
// if too small) with one ReadAt, and verifies the checksum of each block
// wanted. The returned blocks alias buf.
func (r *Reader) readBlocks(buf *[]byte, meta storage.ChunkMeta, wantTimes, wantValues bool) (times, values []byte, err error) {
	// The two block CRCs are the last 8 bytes of the header, and no part of
	// a chunk is longer than its file.
	hlen := int64(meta.HeaderLen)
	for _, l := range [...]int64{hlen - 8, meta.TimesLen, meta.ValuesLen} {
		if l < 0 || l > r.size {
			return nil, nil, fmt.Errorf("%w: chunk lengths %d+%d+%d in a %d-byte file", ErrCorrupt, meta.HeaderLen, meta.TimesLen, meta.ValuesLen, r.size)
		}
	}
	n := hlen + meta.TimesLen
	if wantValues {
		n += meta.ValuesLen
	}
	if int64(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	b := (*buf)[:n]
	if _, err := r.ra.ReadAt(b, meta.Offset); err != nil {
		return nil, nil, fmt.Errorf("read chunk at %d: %w", meta.Offset, err)
	}
	timesCRC := binary.LittleEndian.Uint32(b[hlen-8:])
	valuesCRC := binary.LittleEndian.Uint32(b[hlen-4:])
	times = b[hlen : hlen+meta.TimesLen]
	values = b[hlen+meta.TimesLen:]
	if wantTimes && crc32.ChecksumIEEE(times) != timesCRC {
		return nil, nil, fmt.Errorf("%w: timestamp block checksum mismatch (%s v%d)", ErrCorrupt, meta.SeriesID, meta.Version)
	}
	if wantValues && crc32.ChecksumIEEE(values) != valuesCRC {
		return nil, nil, fmt.Errorf("%w: value block checksum mismatch (%s v%d)", ErrCorrupt, meta.SeriesID, meta.Version)
	}
	return times, values, nil
}

// decodeColumn decodes one block into a column of exactly meta.Count
// elements, taken from pool; a block holding any other count, or trailing
// bytes, is corrupt, and its column goes straight back. Every timestamp
// costs at least one encoded byte, so a count above the timestamp block's
// length is refused before anything is allocated.
func decodeColumn[T int64 | float64](meta storage.ChunkMeta, block []byte, name string, pool *slicepool.Pool[T], decode func(dst []T, b []byte) ([]T, []byte, error)) ([]T, error) {
	if meta.Count < 0 || meta.Count > meta.TimesLen {
		return nil, fmt.Errorf("%w: count %d in a %d-byte timestamp block", ErrCorrupt, meta.Count, meta.TimesLen)
	}
	dst := pool.Get(int(meta.Count))
	col, rest, err := decode(dst, block)
	if err != nil || len(rest) != 0 {
		pool.Put(dst)
		return nil, fmt.Errorf("%w: %s block decode (%v)", ErrCorrupt, name, err)
	}
	return col, nil
}

// Recycle implements storage.Recycler: it pools columns this reader
// decoded, for later loads to decode into. The caller must own them — they
// came from a load of its own query — and must not read them again. Either may be nil.
func (r *Reader) Recycle(ts []int64, vs []float64) {
	timeCols.Put(ts)
	valueCols.Put(vs)
}

// ReadChunk implements storage.ChunkSource.
func (r *Reader) ReadChunk(meta storage.ChunkMeta) (series.Columns, error) {
	buf := blockBufs.Get().(*[]byte)
	defer blockBufs.Put(buf)
	timesBlock, valuesBlock, err := r.readBlocks(buf, meta, true, true)
	if err != nil {
		return series.Columns{}, err
	}
	ts, err := decodeColumn(meta, timesBlock, "timestamp", &timeCols, meta.Codec.DecodeTimesInto)
	if err != nil {
		return series.Columns{}, err
	}
	vs, err := decodeColumn(meta, valuesBlock, "value", &valueCols, meta.Codec.DecodeValuesInto)
	if err != nil {
		timeCols.Put(ts)
		return series.Columns{}, err
	}
	return series.NewColumns(ts, vs), nil
}

// ReadTimes implements storage.ChunkSource: it fetches and decodes only the
// timestamp block.
func (r *Reader) ReadTimes(meta storage.ChunkMeta) ([]int64, error) {
	buf := blockBufs.Get().(*[]byte)
	defer blockBufs.Put(buf)
	timesBlock, _, err := r.readBlocks(buf, meta, true, false)
	if err != nil {
		return nil, err
	}
	return decodeColumn(meta, timesBlock, "timestamp", &timeCols, meta.Codec.DecodeTimesInto)
}

// ReadValues implements storage.ChunkSource: it verifies and decodes only
// the value block. The timestamp block it reads past is the one the
// caller's ReadTimes already verified and decoded.
func (r *Reader) ReadValues(meta storage.ChunkMeta) ([]float64, error) {
	buf := blockBufs.Get().(*[]byte)
	defer blockBufs.Put(buf)
	_, valuesBlock, err := r.readBlocks(buf, meta, false, true)
	if err != nil {
		return nil, err
	}
	return decodeColumn(meta, valuesBlock, "value", &valueCols, meta.Codec.DecodeValuesInto)
}

var (
	_ storage.ChunkSource = (*Reader)(nil)
	_ storage.Recycler    = (*Reader)(nil)
)
