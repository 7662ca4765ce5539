package wal

import (
	"sync"

	"m4lsm/internal/tsfile"
)

// Group commit. Every append goes through a leader/follower hand-off
// instead of taking the log's lock itself: Commit queues its records and
// the caller either becomes the leader (no commit in progress) or waits
// for one. The leader repeatedly claims up to Options.GroupSize pending
// records, appends them all to the active segment under the lock, and
// issues ONE fsync for the whole group when Options.Sync is on, so the
// dominant cost of durable ingestion amortizes across every concurrent
// writer.
//
// The durability contract:
//
//   - A record is acknowledged (Commit returns nil) only after its group's
//     sync has succeeded. Ack ⇒ synced.
//   - An unacknowledged record may or may not survive a crash: the group's
//     bytes can be in the OS cache or partially on disk when the machine
//     dies. Replay keeps whatever whole records it finds.
//   - Watermarks and pins are claimed under the lock after the group's
//     sync and before any waiter is released, while every waiter still
//     holds its shard's lock, so a shard's checkpoint cannot slip between
//     a record's claim and the caller applying it.
//
// Waiting is bounded: the leader never blocks on a caller's lock (it only
// takes the log's own), so a follower waits for at most
// ceil(pending/GroupSize) commit rounds ahead of it.

// Record is one payload to commit. Shard names the shard whose unflushed
// data it carries: the commit claims that shard's watermark at the landing
// segment, keeping the segment until the shard's next Checkpoint. Pin
// instead keeps the landing segment until Unpin(Seq) — for a record whose
// effect becomes durable elsewhere by a later step rather than by a flush.
type Record struct {
	Payload []byte
	Shard   int
	Pin     bool
	Seq     uint64 // set by Commit: the segment the record landed in
}

// call joins one Commit with the leaders committing its records. Only the
// single active leader touches err, and wg orders that before the waiter.
type call struct {
	wg  sync.WaitGroup
	err error
}

type pendingRec struct {
	rec *Record
	c   *call
}

// Commit appends recs in order via the group committer and blocks until
// every one of them is resolved. A failed group fails all its records —
// none is acknowledged, none claims a watermark, and whatever bytes landed
// are an unacked tail — so a non-nil return means "treat none of recs as
// durable".
func (l *Log) Commit(recs []Record) error {
	if l == nil || len(recs) == 0 {
		return nil
	}
	c := &call{}
	c.wg.Add(len(recs))
	l.gmu.Lock()
	for i := range recs {
		l.pending = append(l.pending, pendingRec{&recs[i], c})
	}
	if !l.leading {
		// No commit in progress: lead until the queue drains, so there is
		// always exactly one goroutine appending groups.
		l.leading = true
		for len(l.pending) > 0 {
			batch := l.pending
			if n := l.opts.GroupSize; len(batch) > n {
				batch, l.pending = batch[:n:n], batch[n:]
			} else {
				l.pending = nil
			}
			l.gmu.Unlock()
			err := l.appendGroup(batch)
			for _, p := range batch {
				if err != nil && p.c.err == nil {
					p.c.err = err
				}
				p.c.wg.Done()
			}
			l.gmu.Lock()
		}
		l.leading = false
	}
	l.gmu.Unlock()
	c.wg.Wait()
	return c.err
}

// appendGroup writes one batch to the active segment, rotating as needed
// and syncing once at the end. The wal.group site fails the whole batch
// before any byte is written, so a crash there is all-or-nothing across
// the group.
func (l *Log) appendGroup(batch []pendingRec) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.step("wal.group"); err != nil {
		return err
	}
	for _, p := range batch {
		if l.active.Size() >= l.opts.SegmentBytes && l.active.Size() > tsfile.SegmentHeaderLen {
			if err := l.rotate(); err != nil {
				return err
			}
		}
		if err := l.active.Append(p.rec.Payload, false); err != nil {
			return err
		}
		p.rec.Seq = l.activeSeq
	}
	if l.opts.Sync {
		if err := l.active.Sync(); err != nil {
			return err
		}
	}
	l.groups.Add(1)
	l.records.Add(int64(len(batch)))
	for _, p := range batch {
		if p.rec.Pin {
			l.pins[p.rec.Seq]++
		} else if l.pendingMin[p.rec.Shard] == 0 {
			l.pendingMin[p.rec.Shard] = p.rec.Seq
		}
	}
	return nil
}
