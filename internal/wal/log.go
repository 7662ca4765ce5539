// Package wal is the engine's write-ahead log: a sequence of wal-<seq>.log
// segment files (tsfile.Segment framing), each Commit one group with one
// fsync (commit.go).
//
// Appends go to the newest ("active") segment, which is sealed — fsynced
// and closed — once it crosses Options.SegmentBytes, and a fresh segment
// with the next sequence number takes over. The log carries opaque
// payloads plus one record kind it defines itself, the checkpoint: when
// the engine flushes, its checkpoint marks every earlier record durable
// elsewhere, and a sealed segment is deleted as soon as it holds no
// record committed since the last checkpoint.
//
// A Log owns its lock: callers never see the segments or the watermark,
// only the methods below. The caller's side of the contract is one
// rule — Commit and Checkpoint are called while holding the engine's own
// lock, so a checkpoint can never slip between a record's commit and the
// caller applying it. A nil *Log is a disabled log: every method is a
// no-op that succeeds.
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
	// defaultSegmentBytes: large enough that small databases keep one
	// segment, small enough that retirement keeps replay short.
	defaultSegmentBytes = 1 << 20
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
	// SegmentBytes is the rotation threshold (0 = 1 MiB).
	SegmentBytes int64
	// Sync fsyncs every group and checkpoint before acknowledging it.
	Sync bool
	// Step, when set, is the fault hook called at wal.group, wal.rotate,
	// wal.retire and flush.walreset; a non-nil return aborts that step.
	Step func(site string) error
}

// Segment names one sealed (immutable, fully durable) segment file.
type Segment struct {
	Seq  uint64
	Path string
	Size int64
}

// Stats is a point-in-time summary of the log. Warnings carries recovery
// findings — torn tails truncated, segments quarantined — verbatim.
type Stats struct {
	Segments            int
	Bytes               int64
	RetiredSegments     int64
	RetiredBytes        int64
	Rotations           int64
	TornTruncations     int
	QuarantinedSegments int
	Warnings            []string
	Groups, Records     int64 // commits (one fsync each under Sync), records they carried
}

// Log is the segmented write-ahead log. All methods are safe for
// concurrent use.
type Log struct {
	opts Options

	mu        sync.Mutex // guards everything below
	active    *tsfile.Segment
	activeSeq uint64
	sealed    []Segment // ascending Seq
	// watermark is the lowest segment holding an unflushed record (0 =
	// none): claimed at commit, cleared by a checkpoint, monotone between
	// checkpoints because segment seqs only grow.
	watermark uint64
	// groups and records count commits and the records they carried.
	groups, records int64

	warnings     []string
	quarantined  int
	torn         int
	rotations    int64
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

// Open scans o.Dir for segments, replays every recovered record in log
// order and returns the log positioned for appending. record applies one
// caller payload and reports whether it carries unflushed data (the
// watermark is then re-claimed at the record's segment). checkpoint
// reports a checkpoint: everything record replayed so far is durable
// elsewhere and must be dropped. Checkpoints written under a multi-stripe
// layout are ignored, so the full tail replays — merely redundant.
//
// Sealed segments (all but the newest) were fsynced before the log moved
// on, so one that does not parse completely is corrupt: it is set aside as
// *.bad with a warning and the rest still replays. The newest segment is
// where a crash may legally have torn the tail (mid-append) or even the
// header (mid-create); both keep the valid prefix — the torn record was
// never acknowledged.
func Open(o Options, record func(payload []byte) (claim bool, err error), checkpoint func()) (*Log, error) {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = defaultSegmentBytes
	}
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
	if len(seqs) == 0 {
		if l.active, err = l.create(1); err != nil {
			return nil, err
		}
		l.activeSeq = 1
		return l, nil
	}
	replay := func(seq uint64, recs [][]byte) error {
		for i, rec := range recs {
			if err := l.replay(seq, rec, record, checkpoint); err != nil {
				return fmt.Errorf("wal segment %d record %d: %w", seq, i, err)
			}
		}
		return nil
	}
	last := seqs[len(seqs)-1]
	for _, seq := range seqs[:len(seqs)-1] {
		seg := Segment{Seq: seq, Path: SegmentPath(o.Dir, seq)}
		recs, err := seg.read()
		if err != nil {
			if err := l.setAside(seg, err); err != nil {
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
		l.sealed = append(l.sealed, seg)
	}
	path := SegmentPath(o.Dir, last)
	active, recs, torn, err := tsfile.OpenSegmentAppend(path)
	if err == nil && active.Header().Seq != last {
		active.Close()
		err = fmt.Errorf("%w: segment header seq %d under name seq %d", tsfile.ErrCorrupt, active.Header().Seq, last)
	}
	switch {
	case errors.Is(err, tsfile.ErrCorrupt):
		if fi, serr := os.Stat(path); serr == nil && fi.Size() < tsfile.SegmentHeaderLen {
			// Torn creation: the rotation crash left a partial header and
			// nothing else. Recreate in place.
			if err := os.Remove(path); err != nil {
				return nil, fmt.Errorf("wal: drop torn segment: %w", err)
			}
			l.warnings = append(l.warnings, fmt.Sprintf("wal segment %d: torn creation (partial header), recreated", last))
			l.torn++
		} else if err := l.setAside(Segment{Seq: last, Path: path}, err); err != nil {
			// A full-size header that does not validate is corruption.
			return nil, err
		}
		if active, err = l.create(last); err != nil {
			return nil, err
		}
		recs, torn = nil, 0
	case err != nil:
		return nil, fmt.Errorf("wal: %w", err)
	}
	if torn > 0 {
		l.warnings = append(l.warnings, fmt.Sprintf("wal segment %d: torn tail, %d bytes truncated", last, torn))
		l.torn++
	}
	if err := replay(last, recs); err != nil {
		active.Close()
		return nil, err
	}
	l.active, l.activeSeq = active, last
	return l, nil
}

func (l *Log) create(seq uint64) (*tsfile.Segment, error) {
	seg, err := tsfile.CreateSegment(SegmentPath(l.opts.Dir, seq), tsfile.SegmentHeader{Seq: seq, Shards: 1})
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	return seg, nil
}

// replay routes one recovered record: the log's own checkpoints are
// applied here, everything else goes to the caller.
func (l *Log) replay(seq uint64, rec []byte, record func([]byte) (bool, error), checkpoint func()) error {
	if len(rec) == 0 {
		return errors.New("empty record")
	}
	if rec[0] != opCheckpoint {
		claim, err := record(rec)
		if err == nil && claim && l.watermark == 0 {
			l.watermark = seq
		}
		return err
	}
	numShards, err := decodeCheckpoint(rec[1:])
	if err == nil && numShards == 1 {
		l.watermark = 0
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

// read parses a sealed segment strictly; a failure wrapping
// tsfile.ErrCorrupt means the bytes on disk are wrong.
func (s Segment) read() ([][]byte, error) {
	hdr, recs, err := tsfile.ReadSegment(s.Path)
	if err == nil && hdr.Seq != s.Seq {
		err = fmt.Errorf("%w: segment header seq %d under name seq %d", tsfile.ErrCorrupt, hdr.Seq, s.Seq)
	}
	return recs, err
}

// Verify re-reads a sealed segment from disk (the integrity scrubber's
// check): nil when every byte still belongs to a CRC-valid record.
func (s Segment) Verify() error {
	_, err := s.read()
	return err
}

// setAside renames a corrupt segment to *.bad and records the degradation.
// The records it held are lost — exactly what the warning says — but
// everything before and after it still replays. Caller holds l.mu (or is
// Open).
func (l *Log) setAside(s Segment, cause error) error {
	bad, err := tsfile.SetAside(s.Path)
	if err != nil {
		return fmt.Errorf("wal: quarantine %s: %w", filepath.Base(s.Path), err)
	}
	l.quarantined++
	l.warnings = append(l.warnings,
		fmt.Sprintf("wal segment %s corrupt, set aside as %s: %v", filepath.Base(s.Path), filepath.Base(bad), cause))
	return nil
}

// Quarantine sets a sealed segment that failed Verify aside as *.bad. The
// caller has re-secured its records first (flushed).
func (l *Log) Quarantine(s Segment, cause error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.setAside(s, cause); err != nil {
		return err
	}
	for i, ss := range l.sealed {
		if ss.Seq == s.Seq {
			l.sealed = append(l.sealed[:i:i], l.sealed[i+1:]...)
			break
		}
	}
	return nil
}

func (l *Log) step(site string) error {
	if l.opts.Step == nil {
		return nil
	}
	return l.opts.Step(site)
}

// rotate seals the active segment and starts the next one. The seal fsyncs
// first: sealed segments must be fully durable so that a parse failure in
// one can only ever mean corruption. Caller holds l.mu.
func (l *Log) rotate() error {
	if err := l.step("wal.rotate"); err != nil {
		return err
	}
	if err := l.active.Sync(); err != nil {
		return err
	}
	next, err := l.create(l.activeSeq + 1)
	if err != nil {
		// The active segment is untouched and still appendable; rotation
		// simply retries on the next append.
		return err
	}
	old := l.active
	l.sealed = append(l.sealed, Segment{Seq: l.activeSeq, Path: old.Path(), Size: old.Size()})
	l.active = next
	l.activeSeq++
	l.rotations++
	return old.Close()
}

// Checkpoint records that every earlier record is durable elsewhere: the
// watermark clears, and replay drops what it replayed when it passes the
// record. The caller still holds the engine's lock from the flush, so no
// new commit can slip in between.
func (l *Log) Checkpoint() error {
	if l == nil {
		return nil
	}
	if err := l.step("flush.walreset"); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.active.Append(encodeCheckpoint(l.activeSeq), l.opts.Sync); err != nil {
		return err
	}
	l.watermark = 0
	return nil
}

// Retire deletes every sealed segment the log no longer needs: all
// segments strictly below the watermark. Their records are all superseded
// by checkpoints, so retirement is a plain unlink — crash-safe at any
// point. When there is no unflushed record at all, the active segment
// truncates back to its header too: the check and the truncation share the
// lock with commits, so a concurrent writer either claimed the watermark
// first (truncation is skipped) or appends after it.
func (l *Log) Retire() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	limit := l.activeSeq // retire seq < limit
	if l.watermark != 0 {
		limit = min(limit, l.watermark)
	}
	cut := 0
	for cut < len(l.sealed) && l.sealed[cut].Seq < limit {
		cut++
	}
	truncate := l.watermark == 0 && l.active.Size() > tsfile.SegmentHeaderLen
	if cut == 0 && !truncate {
		return nil
	}
	if err := l.step("wal.retire"); err != nil {
		return err
	}
	if err := l.unlink(cut); err != nil {
		return err
	}
	if truncate {
		l.retiredBytes += l.active.Size() - tsfile.SegmentHeaderLen
		return l.active.Truncate()
	}
	return nil
}

// unlink removes the first n sealed segments. Caller holds l.mu.
func (l *Log) unlink(n int) error {
	for _, s := range l.sealed[:n] {
		if err := os.Remove(s.Path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("wal: retire segment: %w", err)
		}
		l.retiredSegs++
		l.retiredBytes += s.Size
	}
	l.sealed = append([]Segment(nil), l.sealed[n:]...)
	return nil
}

// Reset drops the entire log after a compaction made every record
// obsolete: sealed segments are unlinked and the active one truncates back
// to its header. The caller holds the engine's lock.
func (l *Log) Reset() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.unlink(len(l.sealed)); err != nil {
		return err
	}
	l.watermark = 0
	return l.active.Truncate()
}

// Sealed lists the sealed segments, oldest first.
func (l *Log) Sealed() []Segment {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Segment(nil), l.sealed...)
}

// Capture pins one instant of the log for an online backup: the sealed
// segments (immutable — link or copy them) and the bytes of the active
// segment, which keeps growing afterwards. Its size is tracked in memory
// and always sits on a record boundary, so the prefix is a valid segment.
func (l *Log) Capture() (sealed []Segment, activePath string, active []byte, err error) {
	if l == nil {
		return nil, "", nil, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	active = make([]byte, l.active.Size())
	f, err := os.Open(l.active.Path())
	if err == nil {
		_, err = io.ReadFull(f, active)
		f.Close()
	}
	if err != nil {
		return nil, "", nil, fmt.Errorf("wal: capture: %w", err)
	}
	return append([]Segment(nil), l.sealed...), l.active.Path(), active, nil
}

// Stats summarizes the log; zero for a disabled log.
func (l *Log) Stats() Stats {
	if l == nil {
		return Stats{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{
		Segments:            len(l.sealed) + 1,
		Bytes:               l.active.Size(),
		RetiredSegments:     l.retiredSegs,
		RetiredBytes:        l.retiredBytes,
		Rotations:           l.rotations,
		TornTruncations:     l.torn,
		QuarantinedSegments: l.quarantined,
		Warnings:            append([]string(nil), l.warnings...),
		Groups:              l.groups,
		Records:             l.records,
	}
	for _, s := range l.sealed {
		st.Bytes += s.Size
	}
	return st
}

// Close releases the active segment's file handle. Nothing is flushed
// beyond what Commit already synced, so it is also how a kill is simulated.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.active.Close()
}
