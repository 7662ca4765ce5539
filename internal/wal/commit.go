package wal

// Commit. One call is one group: the log's lock is taken, the wal.group
// step runs, every record goes to the log's file in ONE write, and ONE
// fsync covers them all when Options.Sync is on. Batching happens before the
// log — the engine's caller holding its lock hands over the whole run of
// queued requests per call — so the log itself has no queue. Its callers
// are the engine's two writers, the insert run and the delete, both under
// the engine's lock.
//
// The durability contract:
//
//   - A record is acknowledged (Commit returns nil) only after its group's
//     sync has succeeded. Ack ⇒ synced.
//   - An unacknowledged record may or may not survive a crash: the group's
//     bytes can be in the OS cache or partially on disk when the machine
//     dies. Replay keeps whatever whole records it finds.
//   - Commit returns while the caller still holds the engine's lock, so a
//     checkpoint cannot slip between a record's commit and the caller
//     applying it. The record stays in the log until the next Checkpoint.

// Commit appends payloads in order as one group and returns once they are
// resolved. The wal.group site fails the whole group before any byte is
// written, so a crash there is all-or-nothing across the group. A failed
// group fails all its records — none is acknowledged, and whatever bytes
// landed are an unacked tail — so a non-nil return means "treat none of
// payloads as durable".
func (l *Log) Commit(payloads [][]byte) error {
	if l == nil || len(payloads) == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.step("wal.group"); err != nil {
		return err
	}
	if err := l.log.Append(payloads, l.opts.Sync); err != nil {
		return err
	}
	l.groups++
	l.records += int64(len(payloads))
	return nil
}
