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
	"sort"
	"strings"

	"m4lsm/internal/encoding"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
	"m4lsm/internal/tsfile"
)

// loadFiles opens every chunk file in the directory and registers its
// chunks. Files without a valid footer (crash during flush) are renamed
// aside, but only once every other file opened: a file this build cannot
// read fails Open with every file as it was. The contents of a torn file
// are still in the WAL. Runs single-threaded during Open, so no locks are
// taken.
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
		if strings.Contains(ent.Name(), ".tsf.bad") || strings.Contains(ent.Name(), ".mods.bad") {
			e.badFiles++ // set aside by an earlier recovery
			continue
		}
		if strings.HasSuffix(ent.Name(), ".tsf") {
			names = append(names, ent.Name())
		}
	}
	sort.Strings(names)
	var torn []string
	for _, name := range names {
		path := filepath.Join(e.opts.Dir, name)
		r, err := tsfile.Open(path)
		if errors.Is(err, tsfile.ErrCorrupt) {
			torn = append(torn, path)
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
		for _, m := range r.Metas() {
			e.bumpVersion(m.Version)
		}
	}
	for _, path := range torn {
		if _, err := tsfile.SetAside(path); err != nil {
			e.closeFiles()
			return fmt.Errorf("lsm: quarantine %s: %w", filepath.Base(path), err)
		}
		e.badFiles++
	}
	e.registerChunks(e.files...) // one sort per series
	return nil
}

// parseFileSeq reads a chunk file's number: NNNNNN.tsf, or the
// NNNNNN.seq.tsf and NNNNNN.unseq.tsf of an older build, which wrote a
// flush's late and in-order chunks to two files.
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
// calls it in log order, single-threaded). logged holds every delete the
// mods sidecar has, replayed ones included.
func (e *Engine) replayRecord(rec []byte, logged map[storage.Delete]bool) error {
	if rec[0] == walOpInsert {
		id, pts, err := decodeInsert(rec[1:])
		if err != nil {
			return err
		}
		e.memAppend(id, pts)
		return nil
	}
	if rec[0] != walOpDelete {
		return fmt.Errorf("unknown wal op %d", rec[0])
	}
	d, err := tsfile.ParseDelete(rec[1:])
	if err != nil {
		return err
	}
	// A delete reaches the WAL before the mods sidecar; a crash between the
	// two appends leaves it in the WAL only. Re-append it so the delete
	// applies to flushed chunks, not just replayed points.
	if !logged[d] {
		if err := e.mods.Append(d); err != nil {
			return err
		}
		logged[d] = true
		e.bumpVersion(d.Version)
	}
	e.pyr.MarkStale(d.SeriesID, d.Start, d.End)
	e.applyDeleteToMem(d)
	return nil
}

// replayCheckpoint drops the replayed memtable: the flush that wrote the
// checkpoint made every earlier record durable in chunk files.
func (e *Engine) replayCheckpoint() {
	e.mem = make(map[string]memtable)
	e.memPts = 0
}

// WAL payloads: the bytes the engine hands to wal.Log, which frames and
// group-commits them as opaque records (and defines op 0x05,
// the flush checkpoint, itself).
//
//	insert: 0x03 | uvarint len(id) | id | uvarint n | n × (varint t, 8B v)
//	delete: 0x04 | tsfile.AppendDelete's encoding, the .mods record payload

const (
	walOpInsert byte = 3
	walOpDelete byte = 4
)

// appendInsert appends the insert record of pts to dst; encodeEntries is its
// caller, and it writes each request's records into one buffer.
func appendInsert(dst []byte, seriesID string, pts []series.Point) []byte {
	buf := append(dst, walOpInsert)
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
	n := 1 + uvarintLen(uint64(len(seriesID))) + len(seriesID) + uvarintLen(uint64(len(pts))) + 8*len(pts)
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
