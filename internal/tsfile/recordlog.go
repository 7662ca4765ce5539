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
// the delete sidecar (.mods files, Definition 2.5) and the engine WAL.
//
// Record framing: uvarint payload length | payload | uint32 CRC(payload).
// A torn tail (partial record from a crash mid-append) is detected by the
// CRC and truncated on open, mirroring standard WAL recovery behaviour.
type RecordLog struct {
	f    *os.File
	path string
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
	valid := 0
	rest := data
	for len(rest) > 0 {
		payload, n := parseRecord(rest)
		if n == 0 {
			break // torn tail
		}
		recovered = append(recovered, payload)
		rest = rest[n:]
		valid += n
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("recordlog: %w", err)
	}
	if err := f.Truncate(int64(valid)); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("recordlog: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("recordlog: %w", err)
	}
	return &RecordLog{f: f, path: path}, recovered, nil
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
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	if _, err := l.f.Write(buf); err != nil {
		return fmt.Errorf("recordlog: append: %w", err)
	}
	if sync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("recordlog: sync: %w", err)
		}
	}
	return nil
}

// Reset truncates the log to empty (used after a successful flush makes
// the WAL obsolete).
func (l *RecordLog) Reset() error {
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("recordlog: reset: %w", err)
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("recordlog: reset seek: %w", err)
	}
	return nil
}

// Path returns the log file path.
func (l *RecordLog) Path() string { return l.path }

// Size returns the log's current on-disk size in bytes (0 on stat
// failure). The engine exposes it as the wal_bytes gauge.
func (l *RecordLog) Size() int64 {
	fi, err := l.f.Stat()
	if err != nil {
		return 0
	}
	return fi.Size()
}

// Close releases the file handle.
func (l *RecordLog) Close() error { return l.f.Close() }
