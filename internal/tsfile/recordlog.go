package tsfile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// RecordLog is an append-only log of length+CRC framed records. It backs
// the delete sidecar (.mods files, Definition 2.5); the WAL's segment files
// (Segment) frame their records the same way, after a header.
//
// Record framing: uvarint payload length | payload | uint32 CRC(payload).
// A torn tail (partial record from a crash mid-append) is detected by the
// CRC and truncated on open, mirroring standard WAL recovery behaviour.
type RecordLog struct {
	f *os.File
}

// maxRecordLen bounds a single record; larger lengths indicate corruption.
const maxRecordLen = 64 << 20

// OpenRecordLog opens (or creates) the log for appending after scanning
// existing records into recovered. A corrupt tail is truncated; corruption
// in the middle of the file is an error.
func OpenRecordLog(path string) (log *RecordLog, recovered [][]byte, err error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("recordlog: %w", err)
	}
	recovered, valid := scanRecords(data)
	f, err := openAppend(path, os.O_CREATE, valid)
	if err != nil {
		return nil, nil, fmt.Errorf("recordlog: %w", err)
	}
	return &RecordLog{f: f}, recovered, nil
}

// scanRecords parses the complete valid records at the start of data,
// returning them and the bytes they span; a torn or corrupt record ends
// the scan.
func scanRecords(data []byte) (recs [][]byte, valid int) {
	for valid < len(data) {
		payload, n := parseRecord(data[valid:])
		if n == 0 {
			break
		}
		recs = append(recs, payload)
		valid += n
	}
	return recs, valid
}

// openAppend opens path for appending at offset valid, truncating whatever
// follows it (a torn tail).
func openAppend(path string, flag, valid int) (*os.File, error) {
	f, err := os.OpenFile(path, flag|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(int64(valid)); err != nil {
		f.Close()
		return nil, fmt.Errorf("truncate torn tail: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// encodeRecord frames payload, in one allocation.
func encodeRecord(payload []byte) []byte {
	buf := make([]byte, 0, binary.MaxVarintLen64+len(payload)+4)
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
}

// parseRecord returns the payload and total encoded length of the first
// record in b, or n == 0 if b does not start with a complete valid record.
func parseRecord(b []byte) (payload []byte, n int) {
	plen, used := binary.Uvarint(b)
	if used <= 0 || plen > maxRecordLen {
		return nil, 0
	}
	total := used + int(plen) + 4
	if len(b) < total {
		return nil, 0
	}
	payload = b[used : used+int(plen)]
	want := binary.LittleEndian.Uint32(b[used+int(plen):])
	if crc32.ChecksumIEEE(payload) != want {
		return nil, 0
	}
	return payload, total
}

// Append writes one record. If sync is true the file is fsynced before
// returning, making the record durable.
func (l *RecordLog) Append(payload []byte, sync bool) error {
	if _, err := l.f.Write(encodeRecord(payload)); err != nil {
		return fmt.Errorf("recordlog: append: %w", err)
	}
	if sync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("recordlog: sync: %w", err)
		}
	}
	return nil
}

// Close releases the file handle.
func (l *RecordLog) Close() error { return l.f.Close() }
