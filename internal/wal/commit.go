package wal

import "m4lsm/internal/tsfile"

// Commit. One call is one group: the log's lock is taken, the wal.group
// step runs, every record is appended to the active segment (rotating as
// needed), ONE fsync covers them all when Options.Sync is on, and the
// watermark is claimed. Batching happens before the log — the engine's
// caller holding its lock hands over the whole run of queued requests per
// call — so the log itself has no queue. Its callers are the engine's two
// writers, the insert run and the delete, both under the engine's lock.
//
// The durability contract:
//
//   - A record is acknowledged (Commit returns nil) only after its group's
//     sync has succeeded. Ack ⇒ synced.
//   - An unacknowledged record may or may not survive a crash: the group's
//     bytes can be in the OS cache or partially on disk when the machine
//     dies. Replay keeps whatever whole records it finds.
//   - The watermark is claimed under the lock after the group's sync and
//     before Commit returns, while the caller still holds the engine's
//     lock, so a checkpoint cannot slip between a record's claim and the
//     caller applying it. The claim keeps the records' segments until the
//     next Checkpoint.

// Commit appends payloads in order as one group and returns once they are
// resolved. The wal.group site fails the whole group before any byte is
// written, so a crash there is all-or-nothing across the group. A failed
// group fails all its records — none is acknowledged, none claims the
// watermark, and whatever bytes landed are an unacked tail — so a non-nil
// return means "treat none of payloads as durable".
func (l *Log) Commit(payloads [][]byte) error {
	if l == nil || len(payloads) == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.step("wal.group"); err != nil {
		return err
	}
	first := uint64(0) // the segment the first record landed in
	for _, p := range payloads {
		if l.active.Size() >= l.opts.SegmentBytes && l.active.Size() > tsfile.SegmentHeaderLen {
			if err := l.rotate(); err != nil {
				return err
			}
		}
		if err := l.active.Append(p, false); err != nil {
			return err
		}
		if first == 0 {
			first = l.activeSeq
		}
	}
	if l.opts.Sync {
		if err := l.active.Sync(); err != nil {
			return err
		}
	}
	l.groups++
	l.records += int64(len(payloads))
	if l.watermark == 0 {
		l.watermark = first
	}
	return nil
}
