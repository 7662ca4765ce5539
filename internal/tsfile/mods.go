package tsfile

import (
	"fmt"
	"os"

	"m4lsm/internal/encoding"
	"m4lsm/internal/storage"
)

// ModLog is the delete sidecar (the TsFile.mods of Fig. 15): an append-only
// log of range tombstones. Deletes are never applied to chunk data on disk;
// queries read them alongside chunk metadata (Definition 2.5).
//
// ModLog is not safe for concurrent use: the caller serializes access (the
// engine holds its lock). Readers get slice views of append-only backing
// arrays; appends never mutate bytes a previously returned view can see.
type ModLog struct {
	log  *RecordLog
	mods []storage.Delete
	// bySeries holds the same deletes per series, in append order, so a
	// snapshot reads its own series' and no other's.
	bySeries map[string][]storage.Delete
}

// OpenModLog opens (or creates) the sidecar at path and recovers the
// deletes recorded so far. Bytes past the last whole record may hold
// acknowledged deletes behind a damaged one, so they are kept aside (see
// Torn) rather than destroyed.
func OpenModLog(path string) (*ModLog, error) {
	log, recs, err := OpenRecordLog(path, true)
	if err != nil {
		return nil, fmt.Errorf("mods: %w", err)
	}
	mods, err := parseDeletes(recs)
	if err != nil {
		log.Close()
		return nil, err
	}
	m := &ModLog{log: log, mods: mods, bySeries: map[string][]storage.Delete{}}
	for _, d := range mods {
		m.bySeries[d.SeriesID] = append(m.bySeries[d.SeriesID], d)
	}
	return m, nil
}

// ReadModLog reads the sidecar at path without opening it for writing:
// the deletes its whole records hold, and the bytes past the last of them
// that OpenModLog would cut off and set aside. Inspection tools use it.
func ReadModLog(path string) (dels []storage.Delete, torn int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("mods: %w", err)
	}
	recs, valid := scanRecords(data)
	dels, err = parseDeletes(recs)
	return dels, int64(len(data) - valid), err
}

// parseDeletes decodes a sidecar's records.
func parseDeletes(recs [][]byte) ([]storage.Delete, error) {
	var mods []storage.Delete
	for i, rec := range recs {
		d, err := ParseDelete(rec)
		if err != nil {
			return nil, fmt.Errorf("mods: record %d: %w", i, err)
		}
		mods = append(mods, d)
	}
	return mods, nil
}

// Append records one delete durably.
func (m *ModLog) Append(d storage.Delete) error {
	if d.End < d.Start {
		return fmt.Errorf("mods: inverted delete range [%d,%d]", d.Start, d.End)
	}
	if err := m.log.Append([][]byte{AppendDelete(nil, d)}, true); err != nil {
		return err
	}
	m.mods = append(m.mods, d)
	m.bySeries[d.SeriesID] = append(m.bySeries[d.SeriesID], d)
	return nil
}

// All returns every recorded delete in append order. The caller must not
// modify the returned slice.
func (m *ModLog) All() []storage.Delete { return m.mods }

// Series returns series id's recorded deletes in append order. The caller
// must not modify the returned slice.
func (m *ModLog) Series(id string) []storage.Delete { return m.bySeries[id] }

// Torn returns the bytes OpenModLog found past the last whole record and
// the file it set them aside in.
func (m *ModLog) Torn() (bytes int64, aside string) { return m.log.Torn() }

// Close releases the sidecar file handle.
func (m *ModLog) Close() error { return m.log.Close() }

// AppendDelete appends the encoding of d to dst: the payload of a .mods
// record, and of a WAL delete record after its op byte.
//
//	uvarint len(id) | id | uvarint version | varint start | varint end
func AppendDelete(dst []byte, d storage.Delete) []byte {
	dst = encoding.AppendUvarint(dst, uint64(len(d.SeriesID)))
	dst = append(dst, d.SeriesID...)
	dst = encoding.AppendUvarint(dst, uint64(d.Version))
	dst = encoding.AppendVarint(dst, d.Start)
	dst = encoding.AppendVarint(dst, d.End)
	return dst
}

// ParseDelete decodes one AppendDelete encoding; trailing bytes are an
// error.
func ParseDelete(b []byte) (storage.Delete, error) {
	var d storage.Delete
	idLen, b, err := encoding.Uvarint(b)
	if err != nil {
		return d, err
	}
	if idLen > uint64(len(b)) {
		return d, fmt.Errorf("%w: delete series id length %d", ErrCorrupt, idLen)
	}
	d.SeriesID = string(b[:idLen])
	b = b[idLen:]
	ver, b, err := encoding.Uvarint(b)
	if err != nil {
		return d, err
	}
	d.Version = storage.Version(ver)
	if d.Start, b, err = encoding.Varint(b); err != nil {
		return d, err
	}
	if d.End, b, err = encoding.Varint(b); err != nil {
		return d, err
	}
	if len(b) != 0 {
		return d, fmt.Errorf("%w: %d trailing delete bytes", ErrCorrupt, len(b))
	}
	return d, nil
}
