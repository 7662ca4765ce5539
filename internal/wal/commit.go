package wal

import "m4lsm/internal/tsfile"

// Commit. One call is one group: the log's lock is taken, the wal.group
// step runs, every record is appended to the active segment (rotating as
// needed), ONE fsync covers them all when Options.Sync is on, and the
// watermark and pins are claimed. Batching happens before the log — the
// engine's ingest worker hands over a whole run of queued entries per
// call — so the log itself has no queue.
//
// The durability contract:
//
//   - A record is acknowledged (Commit returns nil) only after its group's
//     sync has succeeded. Ack ⇒ synced.
//   - An unacknowledged record may or may not survive a crash: the group's
//     bytes can be in the OS cache or partially on disk when the machine
//     dies. Replay keeps whatever whole records it finds.
//   - The watermark and pins are claimed under the lock after the group's
//     sync and before Commit returns, while the caller still holds the
//     engine's lock, so a checkpoint cannot slip between a record's claim
//     and the caller applying it.

// Record is one payload to commit. By default the commit claims the
// flush watermark at the landing segment, keeping the segment until the
// next Checkpoint. Pin instead keeps the landing segment until Unpin(Seq) —
// for a record whose effect becomes durable elsewhere by a later step
// rather than by a flush.
type Record struct {
	Payload []byte
	Pin     bool
	Seq     uint64 // set by Commit: the segment the record landed in
}

// Commit appends recs in order as one group and returns once they are
// resolved. The wal.group site fails the whole group before any byte is
// written, so a crash there is all-or-nothing across the group. A failed
// group fails all its records — none is acknowledged, none claims the
// watermark or a pin, and whatever bytes landed are an unacked tail — so a
// non-nil return means "treat none of recs as durable".
func (l *Log) Commit(recs []Record) error {
	if l == nil || len(recs) == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.step("wal.group"); err != nil {
		return err
	}
	for i := range recs {
		if l.active.Size() >= l.opts.SegmentBytes && l.active.Size() > tsfile.SegmentHeaderLen {
			if err := l.rotate(); err != nil {
				return err
			}
		}
		if err := l.active.Append(recs[i].Payload, false); err != nil {
			return err
		}
		recs[i].Seq = l.activeSeq
	}
	if l.opts.Sync {
		if err := l.active.Sync(); err != nil {
			return err
		}
	}
	l.groups++
	l.records += int64(len(recs))
	for _, r := range recs {
		if r.Pin {
			l.pins[r.Seq]++
		} else if l.watermark == 0 {
			l.watermark = r.Seq
		}
	}
	return nil
}
