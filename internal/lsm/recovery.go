// Recovery: Open loads every chunk file (loadFiles), then wal.Open replays
// the log through replayRecord / replayCheckpoint, whose record payloads
// are encoded below.
package lsm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"m4lsm/internal/encoding"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
	"m4lsm/internal/tsfile"
)

// loadFiles opens every readable chunk file in the directory and registers
// its chunks. Files without a valid footer (crash during flush) are
// renamed aside; their contents are still in the WAL. Runs single-threaded
// during Open, so no locks are taken.
func (e *Engine) loadFiles() error {
	entries, err := os.ReadDir(e.opts.Dir)
	if err != nil {
		return fmt.Errorf("lsm: %w", err)
	}
	var names []string
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		if strings.Contains(ent.Name(), ".tsf.bad") {
			e.badFiles++ // quarantined by an earlier recovery
			continue
		}
		if strings.HasSuffix(ent.Name(), ".tsf") {
			names = append(names, ent.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		path := filepath.Join(e.opts.Dir, name)
		r, err := tsfile.Open(path)
		if errors.Is(err, tsfile.ErrCorrupt) {
			// Incomplete flush; set aside and rely on the WAL.
			if _, err := tsfile.SetAside(path); err != nil {
				return fmt.Errorf("lsm: quarantine %s: %w", name, err)
			}
			e.badFiles++
			continue
		}
		if err != nil {
			e.closeFiles()
			return fmt.Errorf("lsm: %w", err)
		}
		e.files = append(e.files, r)
		if seq, ok := parseFileSeq(name); ok {
			e.fileSeq = max(e.fileSeq, int64(seq)+1)
		}
		unseq := strings.HasSuffix(name, ".unseq.tsf")
		if unseq {
			e.unseqFiles++
		}
		e.registerChunks(r)
		for _, m := range r.Metas() {
			e.bumpVersion(m.Version)
			if unseq {
				continue
			}
			if cur, ok := e.maxSeqTime[m.SeriesID]; !ok || m.Last.T > cur {
				e.maxSeqTime[m.SeriesID] = m.Last.T
			}
		}
	}
	return nil
}

func parseFileSeq(name string) (int, bool) {
	base := strings.TrimSuffix(name, ".tsf")
	base = strings.TrimSuffix(base, ".seq")
	base = strings.TrimSuffix(base, ".unseq")
	if base == "" {
		return 0, false
	}
	seq := 0
	for _, c := range base {
		if c < '0' || c > '9' {
			return 0, false
		}
		seq = seq*10 + int(c-'0')
	}
	return seq, true
}

// closeFiles releases every open chunk-file handle. Callers hold e.mu (or
// run single-threaded during Open).
func (e *Engine) closeFiles() {
	for _, f := range e.files {
		f.Close()
	}
	e.files = nil
	for _, f := range e.retired {
		f.Close()
	}
	e.retired = nil
}

// replayRecord applies one recovered WAL record during Open (wal.Open
// calls it in log order, single-threaded) and reports whether it re-claims
// the flush watermark: an insert does, a delete does not. A live delete
// claims it only because every commit does; once replay is done its
// record needs no keeping, since the mods sidecar then holds every
// replayed delete (re-appended below when a crash came between the two
// appends). The shard tag every record carries is skipped: it names the
// lock stripe of the build that wrote it, and every stripe replays into
// the one memtable.
func (e *Engine) replayRecord(rec []byte) (claim bool, err error) {
	op := rec[0]
	if op != walOpInsert && op != walOpDelete {
		return false, fmt.Errorf("unknown wal op %d", op)
	}
	_, body, err := encoding.Uvarint(rec[1:])
	if err != nil {
		return false, fmt.Errorf("wal shard tag: %w", err)
	}
	if op == walOpInsert {
		id, pts, err := decodeInsert(body)
		if err != nil {
			return false, err
		}
		e.memAppend(id, pts)
		return true, nil
	}
	d, err := decodeWALDelete(body)
	if err != nil {
		return false, err
	}
	// A delete reaches the WAL before the mods sidecar; a crash between the
	// two appends leaves it in the WAL only. Re-append it so the delete
	// applies to flushed chunks, not just replayed points.
	if !slices.Contains(e.mods.All(), d) {
		if err := e.mods.Append(d); err != nil {
			return false, err
		}
		e.bumpVersion(d.Version)
	}
	e.pyr.MarkStale(d.SeriesID, d.Start, d.End)
	e.applyDeleteToMem(d)
	return false, nil
}

// replayCheckpoint drops the replayed memtable: the flush that wrote the
// checkpoint made every earlier record durable in chunk files.
func (e *Engine) replayCheckpoint() {
	e.mem = make(map[string]series.Series)
	e.memPts = 0
}

// WAL payloads: the bytes the engine hands to wal.Log, which frames,
// segments and group-commits them as opaque records (and defines op 0x05,
// the flush checkpoint, itself).
//
//	insert: 0x03 | uvarint shard | uvarint len(id) | id | uvarint n | n × (varint t, 8B v)
//	delete: 0x04 | uvarint shard | uvarint len(id) | id | uvarint version | varint start | varint end
//
// The shard tag is written as 0 and skipped on replay. Builds that striped
// the engine wrote the stripe's index there, so their WALs replay
// unchanged. Ops 0x01/0x02 were the untagged forms before that; they are
// gone and fail replay as "unknown wal op".

const (
	walOpInsert byte = 3
	walOpDelete byte = 4
)

// appendInsert appends the insert record of pts to dst; encodeEntries is its
// caller, and it writes each request's records into one buffer.
func appendInsert(dst []byte, seriesID string, pts []series.Point) []byte {
	buf := append(dst, walOpInsert)
	buf = encoding.AppendUvarint(buf, 0)
	buf = encoding.AppendUvarint(buf, uint64(len(seriesID)))
	buf = append(buf, seriesID...)
	buf = encoding.AppendUvarint(buf, uint64(len(pts)))
	for _, p := range pts {
		buf = encoding.AppendVarint(buf, p.T)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.V))
	}
	return buf
}

// insertSize is the exact length of the insert record appendInsert writes.
func insertSize(seriesID string, pts []series.Point) int {
	// The op byte and the shard tag (0) take one byte each.
	n := 2 + uvarintLen(uint64(len(seriesID))) + len(seriesID) + uvarintLen(uint64(len(pts))) + 8*len(pts)
	for _, p := range pts {
		n += uvarintLen(encoding.ZigZag(p.T))
	}
	return n
}

// uvarintLen is the number of bytes AppendUvarint writes for u.
func uvarintLen(u uint64) int {
	return (bits.Len64(u|1) + 6) / 7
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

func encodeDelete(d storage.Delete) []byte {
	buf := encoding.AppendUvarint([]byte{walOpDelete}, 0)
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
