// Segmented write-ahead log. The WAL is a sequence of wal-<seq>.log
// segment files (tsfile.Segment): appends go to the newest ("active")
// segment, which is sealed — fsynced and closed — once it crosses
// Options.WALSegmentBytes, and a fresh segment with the next sequence
// number takes over.
//
// Retirement replaces the old all-shards-flushed whole-file reset: when a
// shard flushes, a checkpoint record (walOpCheckpoint) marks every earlier
// record of that shard durable, and a sealed segment is deleted as soon as
// no shard has an unflushed record in it and no delete is in flight
// against it. One cold shard therefore pins only the segments that
// actually hold its records — typically just the active one — instead of
// the entire log.
//
// All walog state is guarded by Engine.walMu except during Open, which is
// single-threaded.
package lsm

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"m4lsm/internal/tsfile"
)

// walSegPattern names segment files so a lexical sort equals a sequence
// sort for any realistic lifetime (16 digits).
const walSegPattern = "wal-%016d.log"

// defaultWALSegmentBytes is the rotation threshold when Options leaves
// WALSegmentBytes zero: large enough that small databases behave like the
// old single-file WAL, small enough that retirement keeps replay short.
const defaultWALSegmentBytes = 1 << 20

func walSegPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf(walSegPattern, seq))
}

// parseWALSegName extracts the sequence number from a wal-<seq>.log name.
func parseWALSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log")
	seq, err := strconv.ParseUint(mid, 10, 64)
	if err != nil || seq == 0 {
		return 0, false
	}
	return seq, true
}

// walSealed is one sealed (immutable, fully durable) segment.
type walSealed struct {
	seq  uint64
	path string
	size int64
}

// walEntry is one replayable record with the segment it came from.
type walEntry struct {
	seq     uint64
	payload []byte
}

// walog is the segmented WAL state. The engine's walMu guards every field.
type walog struct {
	dir      string
	segBytes int64

	active    *tsfile.Segment
	activeSeq uint64
	sealed    []walSealed // ascending seq

	// pendingMin[shard] is the lowest segment seq holding an unflushed
	// insert record of that shard (0 = none). Set at append time under
	// walMu, cleared by the shard's flush checkpoint; monotone per shard
	// because segment seqs only grow.
	pendingMin []uint64
	// pins counts in-flight deletes per segment: a delete's WAL record
	// must survive until its mods-sidecar append lands, and deletes do not
	// count toward pendingMin (they carry no memtable points).
	pins map[uint64]int

	// Recovery findings, surfaced through Info()/healthz.
	warnings       []string
	quarantinedSeg int // sealed segments set aside as *.bad
	tornTruncated  int // torn tails truncated on open

	rotations    int64
	retiredSegs  int64
	retiredBytes int64
}

// openWALog scans dir for WAL segments and returns the log positioned for
// appending plus every recovered record in segment order.
func openWALog(dir string, numShards int, segBytes int64) (*walog, []walEntry, error) {
	if segBytes <= 0 {
		segBytes = defaultWALSegmentBytes
	}
	w := &walog{
		dir:        dir,
		segBytes:   segBytes,
		pendingMin: make([]uint64, numShards),
		pins:       make(map[uint64]int),
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	var seqs []uint64
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		if seq, ok := parseWALSegName(ent.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	if len(seqs) == 0 {
		active, err := tsfile.CreateSegment(walSegPath(dir, 1), tsfile.SegmentHeader{Seq: 1, Shards: uint32(numShards)})
		if err != nil {
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
		w.active, w.activeSeq = active, 1
		return w, nil, nil
	}

	var recovered []walEntry
	// Sealed segments (all but the newest) were fsynced before the WAL
	// moved on, so they must parse completely; anything else is
	// corruption, quarantined per the PR-2 semantics (set aside as *.bad,
	// warn, degrade, keep serving).
	for _, seq := range seqs[:len(seqs)-1] {
		path := walSegPath(dir, seq)
		hdr, recs, err := tsfile.ReadSegment(path)
		if err == nil && hdr.Seq != seq {
			err = fmt.Errorf("%w: segment header seq %d under name seq %d", tsfile.ErrCorrupt, hdr.Seq, seq)
		}
		if err != nil {
			if qerr := w.quarantineSegment(path, err); qerr != nil {
				return nil, nil, qerr
			}
			continue
		}
		for _, rec := range recs {
			recovered = append(recovered, walEntry{seq: seq, payload: rec})
		}
		fi, err := os.Stat(path)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
		w.sealed = append(w.sealed, walSealed{seq: seq, path: path, size: fi.Size()})
	}

	// The newest segment is where a crash may legally have torn the tail
	// (mid-append) or even the header (mid-create). Both keep the valid
	// prefix of the WAL: the torn record was never acknowledged durable.
	last := seqs[len(seqs)-1]
	path := walSegPath(dir, last)
	active, recs, torn, err := tsfile.OpenSegmentAppend(path)
	switch {
	case err == nil && active.Header().Seq != last:
		active.Close()
		err = fmt.Errorf("%w: segment header seq %d under name seq %d", tsfile.ErrCorrupt, active.Header().Seq, last)
		fallthrough
	case errors.Is(err, tsfile.ErrCorrupt):
		fi, serr := os.Stat(path)
		if serr == nil && fi.Size() < tsfile.SegmentHeaderLen {
			// Torn creation: the rotation crash left a partial header and
			// nothing else. Recreate in place.
			if rerr := os.Remove(path); rerr != nil {
				return nil, nil, fmt.Errorf("wal: drop torn segment: %w", rerr)
			}
			w.warnings = append(w.warnings,
				fmt.Sprintf("wal segment %d: torn creation (partial header), recreated", last))
			w.tornTruncated++
		} else {
			// A full-size header that does not validate is corruption.
			if qerr := w.quarantineSegment(path, err); qerr != nil {
				return nil, nil, qerr
			}
		}
		active, err = tsfile.CreateSegment(walSegPath(dir, last), tsfile.SegmentHeader{Seq: last, Shards: uint32(numShards)})
		if err != nil {
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
		recs, torn = nil, 0
	case err != nil:
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	if torn > 0 {
		w.warnings = append(w.warnings,
			fmt.Sprintf("wal segment %d: torn tail, %d bytes truncated", last, torn))
		w.tornTruncated++
	}
	for _, rec := range recs {
		recovered = append(recovered, walEntry{seq: last, payload: rec})
	}
	w.active, w.activeSeq = active, last
	return w, recovered, nil
}

// quarantineSegment sets a corrupt segment aside as *.bad and records the
// degradation. The records it held are lost — exactly what the warning
// says — but everything before and after it still replays.
func (w *walog) quarantineSegment(path string, cause error) error {
	bad, err := uniqueBadPath(path)
	if err == nil {
		err = os.Rename(path, bad)
	}
	if err != nil {
		return fmt.Errorf("wal: quarantine %s: %w", filepath.Base(path), err)
	}
	w.quarantinedSeg++
	w.warnings = append(w.warnings,
		fmt.Sprintf("wal segment %s corrupt, set aside as %s: %v", filepath.Base(path), filepath.Base(bad), cause))
	return nil
}

// totalBytes is the WAL's on-disk footprint (sealed + active).
func (w *walog) totalBytes() int64 {
	total := w.active.Size()
	for _, s := range w.sealed {
		total += s.size
	}
	return total
}

// --- engine integration -------------------------------------------------

// walRotateLocked seals the active segment and starts the next one. The
// seal fsyncs first: sealed segments must be fully durable so that a
// parse failure in one can only ever mean corruption. Caller holds walMu.
func (e *Engine) walRotateLocked() error {
	w := e.wal
	if err := e.step("wal.rotate"); err != nil {
		return err
	}
	if err := w.active.Sync(); err != nil {
		return err
	}
	next, err := tsfile.CreateSegment(walSegPath(w.dir, w.activeSeq+1),
		tsfile.SegmentHeader{Seq: w.activeSeq + 1, Shards: uint32(len(e.shards))})
	if err != nil {
		// The active segment is untouched and still appendable; rotation
		// simply retries on the next append.
		return err
	}
	old := w.active
	w.sealed = append(w.sealed, walSealed{seq: w.activeSeq, path: old.Path(), size: old.Size()})
	w.active = next
	w.activeSeq++
	w.rotations++
	return old.Close()
}

// walCheckpoint records that every earlier WAL record of shard shardIx is
// durable in chunk files: its pendingMin clears, and replay drops the
// shard's replayed memtable when it passes the record. Called at the end
// of a successful flush, still under the shard's lock, so no new write of
// the shard can slip between the flush and the checkpoint.
func (e *Engine) walCheckpoint(shardIx int) error {
	if e.wal == nil {
		return nil
	}
	if err := e.step("flush.walreset"); err != nil {
		return err
	}
	w := e.wal
	e.walMu.Lock()
	defer e.walMu.Unlock()
	if err := w.active.Append(encodeCheckpoint(shardIx, len(e.shards), w.activeSeq), e.opts.SyncWAL); err != nil {
		return err
	}
	w.pendingMin[shardIx] = 0
	return nil
}

// walUnpin releases a delete's segment pin once the delete is durable in
// the mods sidecar (the WAL record is redundant from then on; replay only
// re-appends deletes missing from mods). On failure the pin is kept:
// conservative, the segment just retires later.
func (e *Engine) walUnpin(seq uint64) {
	e.walMu.Lock()
	defer e.walMu.Unlock()
	if n := e.wal.pins[seq]; n > 1 {
		e.wal.pins[seq] = n - 1
	} else {
		delete(e.wal.pins, seq)
	}
}

// maybeRetireWAL deletes every sealed segment no shard still needs: all
// segments strictly below the lowest pendingMin and the lowest pinned seq.
// Sealed segments are fully durable and their records all superseded by
// checkpoints, so retirement is a plain unlink — crash-safe at any point.
// When no shard has any unflushed record at all (and no delete is in
// flight), the active segment truncates back to its header too, restoring
// the old all-shards-flushed empty-WAL state: the check and the truncation
// share walMu with appends, so a concurrent writer either claimed its
// pendingMin first (truncation is skipped) or appends after it.
func (e *Engine) maybeRetireWAL() error {
	if e.wal == nil {
		return nil
	}
	w := e.wal
	e.walMu.Lock()
	defer e.walMu.Unlock()
	allClear := len(w.pins) == 0
	limit := w.activeSeq // retire seq < limit
	for _, pm := range w.pendingMin {
		if pm == 0 {
			continue
		}
		allClear = false
		if pm < limit {
			limit = pm
		}
	}
	for seq := range w.pins {
		if seq < limit {
			limit = seq
		}
	}
	cut := 0
	for cut < len(w.sealed) && w.sealed[cut].seq < limit {
		cut++
	}
	truncate := allClear && w.active.Size() > tsfile.SegmentHeaderLen
	if cut == 0 && !truncate {
		return nil
	}
	if err := e.step("wal.retire"); err != nil {
		return err
	}
	for _, s := range w.sealed[:cut] {
		if err := os.Remove(s.path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("lsm: retire wal segment: %w", err)
		}
		w.retiredSegs++
		w.retiredBytes += s.size
	}
	w.sealed = append([]walSealed(nil), w.sealed[cut:]...)
	if truncate {
		w.retiredBytes += w.active.Size() - tsfile.SegmentHeaderLen
		return w.active.Truncate()
	}
	return nil
}

// walResetAll drops the entire WAL after a compaction made every record
// obsolete: sealed segments are unlinked and the active one truncates back
// to its header. Caller holds all shard locks.
func (e *Engine) walResetAll() error {
	w := e.wal
	e.walMu.Lock()
	defer e.walMu.Unlock()
	for _, s := range w.sealed {
		if err := os.Remove(s.path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("lsm: reset wal segment: %w", err)
		}
		w.retiredSegs++
		w.retiredBytes += s.size
	}
	w.sealed = nil
	for i := range w.pendingMin {
		w.pendingMin[i] = 0
	}
	w.pins = make(map[uint64]int)
	return w.active.Truncate()
}
