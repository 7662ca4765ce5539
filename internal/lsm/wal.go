package lsm

import (
	"encoding/binary"
	"fmt"
	"math"

	"m4lsm/internal/encoding"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
)

// WAL payloads: the bytes the engine hands to wal.Log, which frames,
// segments and group-commits them as opaque records (and defines op 0x05,
// the flush checkpoint, itself).
//
//	insert: 0x03 | uvarint shard | uvarint len(id) | id | uvarint n | n × (varint t, 8B v)
//	delete: 0x04 | uvarint shard | uvarint len(id) | id | uvarint version | varint start | varint end
//
// The shard prefix names the writing shard. The tag is diagnostic: replay
// always re-routes by hashing the series id, so WALs survive a NumShards
// change. Ops 0x01/0x02 were the untagged pre-sharding forms; they are gone
// and fail replay as "unknown wal op".

const (
	walOpInsertSharded byte = 3
	walOpDeleteSharded byte = 4
)

func encodeInsertSharded(shard int, seriesID string, pts []series.Point) []byte {
	buf := encoding.AppendUvarint([]byte{walOpInsertSharded}, uint64(shard))
	buf = encoding.AppendUvarint(buf, uint64(len(seriesID)))
	buf = append(buf, seriesID...)
	buf = encoding.AppendUvarint(buf, uint64(len(pts)))
	for _, p := range pts {
		buf = encoding.AppendVarint(buf, p.T)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.V))
	}
	return buf
}

func decodeInsert(b []byte) (string, []series.Point, error) {
	idLen, b, err := encoding.Uvarint(b)
	if err != nil {
		return "", nil, err
	}
	if idLen > uint64(len(b)) {
		return "", nil, fmt.Errorf("wal insert: id length %d", idLen)
	}
	id := string(b[:idLen])
	b = b[idLen:]
	n, b, err := encoding.Uvarint(b)
	if err != nil {
		return "", nil, err
	}
	// Each point takes at least 9 bytes (1-byte varint + 8-byte value); a
	// count beyond that is a corrupt record, not a huge allocation.
	if n > uint64(len(b)/9) {
		return "", nil, fmt.Errorf("wal insert: point count %d exceeds %d payload bytes", n, len(b))
	}
	pts := make([]series.Point, 0, n)
	for i := uint64(0); i < n; i++ {
		t, rest, err := encoding.Varint(b)
		if err != nil {
			return "", nil, err
		}
		b = rest
		if len(b) < 8 {
			return "", nil, fmt.Errorf("wal insert: truncated value %d", i)
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(b))
		b = b[8:]
		pts = append(pts, series.Point{T: t, V: v})
	}
	if len(b) != 0 {
		return "", nil, fmt.Errorf("wal insert: %d trailing bytes", len(b))
	}
	return id, pts, nil
}

func encodeDeleteSharded(shard int, d storage.Delete) []byte {
	buf := encoding.AppendUvarint([]byte{walOpDeleteSharded}, uint64(shard))
	buf = encoding.AppendUvarint(buf, uint64(len(d.SeriesID)))
	buf = append(buf, d.SeriesID...)
	buf = encoding.AppendUvarint(buf, uint64(d.Version))
	buf = encoding.AppendVarint(buf, d.Start)
	buf = encoding.AppendVarint(buf, d.End)
	return buf
}

func decodeWALDelete(b []byte) (storage.Delete, error) {
	var d storage.Delete
	idLen, b, err := encoding.Uvarint(b)
	if err != nil {
		return d, err
	}
	if idLen > uint64(len(b)) {
		return d, fmt.Errorf("wal delete: id length %d", idLen)
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
		return d, fmt.Errorf("wal delete: %d trailing bytes", len(b))
	}
	return d, nil
}
