package tsfile

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Segment is one write-ahead-log segment file (wal-<seq>.log). Unlike the
// monolithic RecordLog it starts with a fixed, checksummed header naming
// the segment's sequence number and the lock-stripe count of the engine
// that created it, so recovery can order the segments an older, rotating
// build left, detect renames, and tell a torn tail on the newest segment
// (legal, truncated) from corruption in a sealed one (illegal,
// quarantined).
//
// Record framing after the header is identical to RecordLog:
// uvarint payload length | payload | uint32 CRC(payload).
type Segment struct {
	f    *os.File
	path string
	hdr  SegmentHeader
	size int64 // bytes written so far, header included; always a record boundary
}

// SegmentHeader identifies a WAL segment.
type SegmentHeader struct {
	Version byte   // format version, currently 1
	Seq     uint64 // segment sequence number, strictly increasing per WAL
	Shards  uint32 // writer's lock-stripe count (diagnostic; written as 1)
}

// SegmentVersion is the current segment format version.
const SegmentVersion = 1

// SegmentHeaderLen is the fixed on-disk header size:
// magic "M4WS" (4) | version (1) | seq (8) | shards (4) | CRC32 (4).
const SegmentHeaderLen = 21

var segMagic = [4]byte{'M', '4', 'W', 'S'}

// EncodeSegmentHeader renders h in the fixed on-disk layout. The CRC
// covers every preceding header byte, magic included.
func EncodeSegmentHeader(h SegmentHeader) []byte {
	buf := make([]byte, 0, SegmentHeaderLen)
	buf = append(buf, segMagic[:]...)
	buf = append(buf, h.Version)
	buf = binary.LittleEndian.AppendUint64(buf, h.Seq)
	buf = binary.LittleEndian.AppendUint32(buf, h.Shards)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// DecodeSegmentHeader parses the header at the start of b. Every failure
// wraps ErrCorrupt; the caller decides whether that means a torn creation
// (newest segment, short file) or real corruption (sealed segment).
func DecodeSegmentHeader(b []byte) (SegmentHeader, error) {
	var h SegmentHeader
	if len(b) < SegmentHeaderLen {
		return h, fmt.Errorf("%w: segment header: %d of %d bytes", ErrCorrupt, len(b), SegmentHeaderLen)
	}
	if [4]byte(b[:4]) != segMagic {
		return h, fmt.Errorf("%w: segment header: bad magic %q", ErrCorrupt, b[:4])
	}
	want := binary.LittleEndian.Uint32(b[SegmentHeaderLen-4 : SegmentHeaderLen])
	if crc32.ChecksumIEEE(b[:SegmentHeaderLen-4]) != want {
		return h, fmt.Errorf("%w: segment header: checksum mismatch", ErrCorrupt)
	}
	h.Version = b[4]
	if h.Version == 0 || h.Version > SegmentVersion {
		return h, fmt.Errorf("%w: segment header: unsupported version %d", ErrCorrupt, h.Version)
	}
	h.Seq = binary.LittleEndian.Uint64(b[5:13])
	h.Shards = binary.LittleEndian.Uint32(b[13:17])
	return h, nil
}

// CreateSegment creates a fresh segment at path, writing and fsyncing the
// header so a later open can never mistake the file for pre-header junk.
func CreateSegment(path string, h SegmentHeader) (*Segment, error) {
	if h.Version == 0 {
		h.Version = SegmentVersion
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	}
	hdr := EncodeSegmentHeader(h)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("segment: write header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("segment: sync header: %w", err)
	}
	return &Segment{f: f, path: path, hdr: h, size: SegmentHeaderLen}, nil
}

// OpenSegmentAppend opens the newest segment of a WAL for appending. The
// valid prefix of records is returned; a torn tail (crash mid-append) is
// truncated and reported through tornBytes so the engine can surface a
// warning. A missing or invalid header is returned as ErrCorrupt — on the
// newest segment a header shorter than SegmentHeaderLen means the creating
// crash tore even the header, which the caller handles by recreating the
// file.
func OpenSegmentAppend(path string) (seg *Segment, recovered [][]byte, tornBytes int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("segment: %w", err)
	}
	hdr, err := DecodeSegmentHeader(data)
	if err != nil {
		return nil, nil, 0, err
	}
	recovered, valid := scanRecords(data[SegmentHeaderLen:])
	valid += SegmentHeaderLen
	tornBytes = int64(len(data) - valid)
	f, err := openAppend(path, 0, valid)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("segment: %w", err)
	}
	return &Segment{f: f, path: path, hdr: hdr, size: int64(valid)}, recovered, tornBytes, nil
}

// ReadSegment reads a sealed segment strictly: the header must validate
// and every byte after it must belong to a complete, CRC-valid record.
// Sealed segments are fsynced before the WAL moves on, so any invalid
// suffix here is corruption, never a torn append.
func ReadSegment(path string) (SegmentHeader, [][]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return SegmentHeader{}, nil, fmt.Errorf("segment: %w", err)
	}
	return ParseSegment(data)
}

// ParseSegment decodes a complete sealed-segment image (see ReadSegment).
func ParseSegment(data []byte) (SegmentHeader, [][]byte, error) {
	hdr, err := DecodeSegmentHeader(data)
	if err != nil {
		return SegmentHeader{}, nil, err
	}
	rest := data[SegmentHeaderLen:]
	recs, valid := scanRecords(rest)
	if valid < len(rest) {
		return hdr, nil, fmt.Errorf("%w: segment %d: invalid record after %d records (%d bytes left)",
			ErrCorrupt, hdr.Seq, len(recs), len(rest)-valid)
	}
	return hdr, recs, nil
}

// Append writes one record. With sync the file is fsynced before
// returning, making the record durable.
func (s *Segment) Append(payload []byte, sync bool) error {
	buf := encodeRecord(payload)
	if _, err := s.f.Write(buf); err != nil {
		return fmt.Errorf("segment: append: %w", err)
	}
	s.size += int64(len(buf))
	if sync {
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("segment: sync: %w", err)
		}
	}
	return nil
}

// Sync fsyncs the segment: one call covers a whole group commit.
func (s *Segment) Sync() error {
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("segment: sync: %w", err)
	}
	return nil
}

// Truncate drops every record, keeping only the header (a checkpoint makes
// the whole WAL obsolete at once).
func (s *Segment) Truncate() error {
	if err := s.f.Truncate(SegmentHeaderLen); err != nil {
		return fmt.Errorf("segment: truncate: %w", err)
	}
	if _, err := s.f.Seek(SegmentHeaderLen, io.SeekStart); err != nil {
		return fmt.Errorf("segment: truncate seek: %w", err)
	}
	s.size = SegmentHeaderLen
	return nil
}

// Header returns the segment's identifying header.
func (s *Segment) Header() SegmentHeader { return s.hdr }

// Path returns the segment file path.
func (s *Segment) Path() string { return s.path }

// Size returns the bytes written so far (header included). It is tracked
// in memory, so it always sits on a record boundary — the backup path
// relies on that to copy a consistent prefix of the active segment.
func (s *Segment) Size() int64 { return s.size }

// Close releases the file handle.
func (s *Segment) Close() error { return s.f.Close() }
