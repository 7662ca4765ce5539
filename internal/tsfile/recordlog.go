package tsfile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
)

// RecordLog is an append-only log of length+CRC framed records. It backs
// both of the engine's logs: the delete sidecar (.mods files, Definition
// 2.5) and the write-ahead log (internal/wal).
//
// Record framing: uvarint payload length | payload | uint32 CRC(payload).
// Whatever follows the last whole record at open — a torn tail from a
// crash mid-append, or damage, which the framing cannot tell apart — is
// cut off, mirroring standard WAL recovery behaviour.
//
// RecordLog is not safe for concurrent use: its owner serializes access.
type RecordLog struct {
	f     *os.File
	size  int64  // bytes of whole records; every append writes here
	torn  int64  // bytes cut off the end at open
	aside string // where those bytes were kept, if they were
	buf   []byte // Append's framing scratch, reused across groups
}

// maxRecordLen bounds a single record; larger lengths indicate corruption.
const maxRecordLen = 64 << 20

// maxScratch bounds the framing scratch a log keeps between appends.
const maxScratch = 1 << 20

// OpenRecordLog opens (or creates) the log at path for appending after
// scanning its whole records into recovered. With keepTorn, bytes past the
// last whole record are first written, synced, to a file of their own under
// SetAside's naming, so cutting them off destroys nothing; Torn reports
// both.
func OpenRecordLog(path string, keepTorn bool) (log *RecordLog, recovered [][]byte, err error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("recordlog: %w", err)
	}
	recovered, valid := scanRecords(data)
	l := &RecordLog{size: int64(valid), torn: int64(len(data) - valid)}
	if keepTorn && l.torn > 0 {
		if l.aside, err = writeAside(path, data[valid:]); err != nil {
			return nil, nil, fmt.Errorf("recordlog: keep torn bytes: %w", err)
		}
	}
	if l.f, err = os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644); err != nil {
		return nil, nil, fmt.Errorf("recordlog: %w", err)
	}
	if l.torn > 0 {
		if err := l.f.Truncate(l.size); err != nil {
			l.f.Close()
			return nil, nil, fmt.Errorf("recordlog: truncate torn tail: %w", err)
		}
	}
	return l, recovered, nil
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

// Append writes payloads as consecutive records with one write at the end
// of the last whole record, then, if sync is set, one fsync: the group is
// durable when Append returns nil. A failed write may leave bytes past the
// last whole record: later appends write over them, and an open cuts off
// what is left.
func (l *RecordLog) Append(payloads [][]byte, sync bool) error {
	buf := l.buf[:0]
	for _, p := range payloads {
		buf = binary.AppendUvarint(buf, uint64(len(p)))
		buf = append(buf, p...)
		buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(p))
	}
	if cap(buf) <= maxScratch {
		l.buf = buf
	}
	if _, err := l.f.WriteAt(buf, l.size); err != nil {
		return fmt.Errorf("recordlog: append: %w", err)
	}
	l.size += int64(len(buf))
	if sync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("recordlog: sync: %w", err)
		}
	}
	return nil
}

// Truncate drops every record.
func (l *RecordLog) Truncate() error {
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("recordlog: truncate: %w", err)
	}
	l.size = 0
	return nil
}

// Size returns the bytes of whole records in the log. It is tracked in
// memory, so it always sits on a record boundary.
func (l *RecordLog) Size() int64 { return l.size }

// Torn returns the bytes OpenRecordLog cut off past the last whole record,
// and the file it kept them in ("" unless opened with keepTorn).
func (l *RecordLog) Torn() (bytes int64, aside string) { return l.torn, l.aside }

// Close releases the file handle.
func (l *RecordLog) Close() error { return l.f.Close() }
