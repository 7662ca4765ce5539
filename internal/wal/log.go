// Package wal is the engine's write-ahead log: one segment file,
// wal-<seq>.log (tsfile.Segment framing), to which each Commit appends one
// group with one fsync (commit.go).
//
// The log carries opaque payloads plus one record kind it defines itself,
// the checkpoint. When the engine flushes, Checkpoint appends one, which
// marks every earlier record durable elsewhere, and then truncates the file
// back to its header. The file never rotates: the checkpoint is the only
// way the log shrinks, so it holds exactly what was committed since the
// last flush.
//
// Older builds rotated the log into a sequence of segments. Open still
// replays such a directory in sequence order and appends to the newest
// segment; the first Checkpoint unlinks the older ones.
//
// A Log owns its lock: callers never see the file, only the methods below.
// The caller's side of the contract is one rule — Commit and Checkpoint are
// called while holding the engine's own lock, so a checkpoint can never slip
// between a record's commit and the caller applying it. A nil *Log is a
// disabled log: every method is a no-op that succeeds.
package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"m4lsm/internal/encoding"
	"m4lsm/internal/tsfile"
)

const (
	// segPattern names segment files so a lexical sort equals a sequence
	// sort for any realistic lifetime (16 digits).
	segPattern = "wal-%016d.log"
	// opCheckpoint is the first payload byte of the log's own record:
	//
	//	0x05 | uvarint shard | uvarint numShards | uvarint upToSeq
	//
	// The counts name the writer's lock-stripe layout. The log writes
	// "shard 0 of 1"; older builds striped the engine and wrote other
	// counts, and a checkpoint of any other layout is ignored on replay.
	// Caller payloads must start with any other byte (the engine uses 0x03
	// and 0x04).
	opCheckpoint byte = 5
)

// Options configures a Log.
type Options struct {
	Dir string
	// Sync fsyncs every group and checkpoint before acknowledging it.
	Sync bool
	// Step, when set, is the fault hook called at wal.group, flush.walreset
	// and wal.retire; a non-nil return aborts that step.
	Step func(site string) error
}

// Segment names one legacy segment file: a sealed segment an older,
// rotating build left behind, replayed at Open and not yet unlinked.
type Segment struct {
	Seq  uint64
	Path string
	Size int64
}

// Stats is a point-in-time summary of the log. Warnings carries recovery
// findings — torn tails truncated, segments quarantined — verbatim.
type Stats struct {
	Segments            int // the log's file plus legacy segments not yet unlinked
	Bytes               int64
	RetiredSegments     int64 // legacy segments unlinked
	RetiredBytes        int64
	TornTruncations     int
	QuarantinedSegments int
	Warnings            []string
	Groups, Records     int64 // commits (one fsync each under Sync), records they carried
}

// Log is the write-ahead log. All methods are safe for concurrent use.
type Log struct {
	opts Options

	mu     sync.Mutex // guards everything below
	seg    *tsfile.Segment
	legacy []Segment // ascending Seq, all below seg's
	// groups and records count commits and the records they carried.
	groups, records int64

	warnings     []string
	quarantined  int
	torn         int
	retiredSegs  int64
	retiredBytes int64
}

// SegmentPath is the file name of segment seq under dir.
func SegmentPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf(segPattern, seq))
}

func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	seq, err := strconv.ParseUint(name[len("wal-"):len(name)-len(".log")], 10, 64)
	return seq, err == nil && seq != 0
}

// Open scans o.Dir for segment files, replays every recovered record in
// log order and returns the log positioned for appending. record applies
// one caller payload. checkpoint reports a checkpoint: everything record
// replayed so far is durable elsewhere and must be dropped. Checkpoints
// written under a multi-stripe layout are ignored, so the full tail
// replays — merely redundant.
//
// A fresh directory gets wal-0000000000000001.log. In a directory an older
// build rotated, the segments below the newest were fsynced before that
// build moved on, so one that does not parse completely is corrupt: it is
// set aside as *.bad with a warning and the rest still replays. The newest
// file is where a crash may legally have torn the tail (mid-append) or even
// the header (mid-create); both keep the valid prefix — the torn record was
// never acknowledged.
func Open(o Options, record func(payload []byte) error, checkpoint func()) (*Log, error) {
	l := &Log{opts: o}
	entries, err := os.ReadDir(o.Dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var seqs []uint64
	for _, ent := range entries {
		if seq, ok := parseSegmentName(ent.Name()); ok && !ent.IsDir() {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	replay := func(seq uint64, recs [][]byte) error {
		for i, rec := range recs {
			if err := l.replay(rec, record, checkpoint); err != nil {
				return fmt.Errorf("wal segment %d record %d: %w", seq, i, err)
			}
		}
		return nil
	}
	last := uint64(1)
	if len(seqs) > 0 {
		last = seqs[len(seqs)-1]
		for _, seq := range seqs[:len(seqs)-1] {
			seg := Segment{Seq: seq, Path: SegmentPath(o.Dir, seq)}
			hdr, recs, err := tsfile.ReadSegment(seg.Path)
			if err == nil && hdr.Seq != seq {
				err = fmt.Errorf("%w: segment header seq %d under name seq %d", tsfile.ErrCorrupt, hdr.Seq, seq)
			}
			if err != nil {
				if err := l.setAside(seg.Path, err); err != nil {
					return nil, err
				}
				continue
			}
			if err := replay(seq, recs); err != nil {
				return nil, err
			}
			fi, err := os.Stat(seg.Path)
			if err != nil {
				return nil, fmt.Errorf("wal: %w", err)
			}
			seg.Size = fi.Size()
			l.legacy = append(l.legacy, seg)
		}
		if l.seg, err = l.openLast(last, replay); err != nil {
			return nil, err
		}
	}
	if l.seg == nil {
		if l.seg, err = tsfile.CreateSegment(SegmentPath(o.Dir, last), tsfile.SegmentHeader{Seq: last, Shards: 1}); err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
	}
	return l, nil
}

// openLast opens the newest segment file for appending and replays it. It
// returns nil, and no error, when the file must be created afresh: a torn
// creation (a partial header and nothing else) is removed, a full-size
// header that does not validate is corruption and set aside.
func (l *Log) openLast(seq uint64, replay func(uint64, [][]byte) error) (*tsfile.Segment, error) {
	path := SegmentPath(l.opts.Dir, seq)
	seg, recs, torn, err := tsfile.OpenSegmentAppend(path)
	if err == nil && seg.Header().Seq != seq {
		seg.Close()
		err = fmt.Errorf("%w: segment header seq %d under name seq %d", tsfile.ErrCorrupt, seg.Header().Seq, seq)
	}
	switch {
	case errors.Is(err, tsfile.ErrCorrupt):
		if fi, serr := os.Stat(path); serr == nil && fi.Size() < tsfile.SegmentHeaderLen {
			if err := os.Remove(path); err != nil {
				return nil, fmt.Errorf("wal: drop torn segment: %w", err)
			}
			l.warnings = append(l.warnings, fmt.Sprintf("wal segment %d: torn creation (partial header), recreated", seq))
			l.torn++
			return nil, nil
		}
		return nil, l.setAside(path, err)
	case err != nil:
		return nil, fmt.Errorf("wal: %w", err)
	}
	if torn > 0 {
		l.warnings = append(l.warnings, fmt.Sprintf("wal segment %d: torn tail, %d bytes truncated", seq, torn))
		l.torn++
	}
	if err := replay(seq, recs); err != nil {
		seg.Close()
		return nil, err
	}
	return seg, nil
}

// replay routes one recovered record: the log's own checkpoints are
// applied here, everything else goes to the caller.
func (l *Log) replay(rec []byte, record func([]byte) error, checkpoint func()) error {
	if len(rec) == 0 {
		return errors.New("empty record")
	}
	if rec[0] != opCheckpoint {
		return record(rec)
	}
	numShards, err := decodeCheckpoint(rec[1:])
	if err == nil && numShards == 1 {
		checkpoint()
	}
	return err
}

func encodeCheckpoint(upTo uint64) []byte {
	buf := encoding.AppendUvarint([]byte{opCheckpoint}, 0) // shard 0
	buf = encoding.AppendUvarint(buf, 1)                   // of 1
	return encoding.AppendUvarint(buf, upTo)
}

// decodeCheckpoint validates a checkpoint body and returns its stripe count.
func decodeCheckpoint(b []byte) (numShards int, err error) {
	var f [3]uint64 // shard, numShards, upToSeq (diagnostic)
	for i := range f {
		if f[i], b, err = encoding.Uvarint(b); err != nil {
			return 0, err
		}
	}
	if len(b) != 0 {
		return 0, fmt.Errorf("wal checkpoint: %d trailing bytes", len(b))
	}
	if f[1] == 0 || f[0] >= f[1] || f[1] > 1<<20 {
		return 0, fmt.Errorf("wal checkpoint: shard %d of %d", f[0], f[1])
	}
	return int(f[1]), nil
}

// setAside renames a corrupt segment to *.bad and records the degradation.
// The records it held are lost — exactly what the warning says — but
// everything before and after it still replays. Open is the only caller.
func (l *Log) setAside(path string, cause error) error {
	bad, err := tsfile.SetAside(path)
	if err != nil {
		return fmt.Errorf("wal: quarantine %s: %w", filepath.Base(path), err)
	}
	l.quarantined++
	l.warnings = append(l.warnings,
		fmt.Sprintf("wal segment %s corrupt, set aside as %s: %v", filepath.Base(path), filepath.Base(bad), cause))
	return nil
}

func (l *Log) step(site string) error {
	if l.opts.Step == nil {
		return nil
	}
	return l.opts.Step(site)
}

// Checkpoint empties the log once every record in it is durable elsewhere.
// It appends the checkpoint record (fsynced under Sync), so a crash at any
// later point replays nothing the checkpoint covers; unlinks the legacy
// segments; and truncates the file to its header. A log that is already
// one header-only file is left alone. The caller holds the engine's lock
// from the flush, so no new commit can slip in between.
func (l *Log) Checkpoint() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.legacy) == 0 && l.seg.Size() == tsfile.SegmentHeaderLen {
		return nil
	}
	if err := l.step("flush.walreset"); err != nil {
		return err
	}
	if err := l.seg.Append(encodeCheckpoint(l.seg.Header().Seq), l.opts.Sync); err != nil {
		return err
	}
	if err := l.step("wal.retire"); err != nil {
		return err
	}
	for len(l.legacy) > 0 {
		s := l.legacy[0]
		if err := os.Remove(s.Path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("wal: retire segment: %w", err)
		}
		l.legacy = l.legacy[1:]
		l.retiredSegs++
		l.retiredBytes += s.Size
	}
	l.retiredBytes += l.seg.Size() - tsfile.SegmentHeaderLen
	return l.seg.Truncate()
}

// Capture pins one instant of the log for an online backup: the legacy
// segments not yet unlinked (immutable — link or copy them) and the bytes
// of the log's file, which keeps growing afterwards. Its size is tracked in
// memory and always sits on a record boundary, so the prefix is a valid
// segment.
func (l *Log) Capture() (legacy []Segment, path string, data []byte, err error) {
	if l == nil {
		return nil, "", nil, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	data = make([]byte, l.seg.Size())
	f, err := os.Open(l.seg.Path())
	if err == nil {
		_, err = io.ReadFull(f, data)
		f.Close()
	}
	if err != nil {
		return nil, "", nil, fmt.Errorf("wal: capture: %w", err)
	}
	return append([]Segment(nil), l.legacy...), l.seg.Path(), data, nil
}

// Stats summarizes the log; zero for a disabled log.
func (l *Log) Stats() Stats {
	if l == nil {
		return Stats{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{
		Segments:            len(l.legacy) + 1,
		Bytes:               l.seg.Size(),
		RetiredSegments:     l.retiredSegs,
		RetiredBytes:        l.retiredBytes,
		TornTruncations:     l.torn,
		QuarantinedSegments: l.quarantined,
		Warnings:            append([]string(nil), l.warnings...),
		Groups:              l.groups,
		Records:             l.records,
	}
	for _, s := range l.legacy {
		st.Bytes += s.Size
	}
	return st
}

// Close releases the file handle. Nothing is flushed beyond what Commit
// already synced, so it is also how a kill is simulated.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seg.Close()
}
