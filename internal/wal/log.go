// Package wal is the engine's write-ahead log: one file, wal.log, framed
// as a tsfile.RecordLog like the .mods delete sidecar, to which each Commit
// appends one group with one write and one fsync (commit.go).
//
// The log carries opaque payloads plus one record kind it defines itself,
// the checkpoint. When the engine flushes, Checkpoint appends one, which
// marks every earlier record durable elsewhere, and then truncates the
// file. The file never rotates: the checkpoint is the only way the log
// shrinks, so it holds exactly what was committed since the last flush.
//
// Older builds wrote a different format, a sequence of wal-<seq>.log
// segments. Open refuses a directory holding one (see CheckFile) rather
// than start a fresh log beside records it cannot replay.
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
	"strings"
	"sync"

	"m4lsm/internal/tsfile"
)

const (
	// fileName is the log's one file in Options.Dir.
	fileName = "wal.log"
	// opCheckpoint is the log's own record, one byte alone. Caller payloads
	// must start with any other byte (the engine uses 0x03 and 0x04).
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

// Stats is a point-in-time summary of the log. Warnings carries recovery
// findings — a torn tail truncated — verbatim.
type Stats struct {
	Bytes           int64 // the file's size: records since the last checkpoint
	RetiredBytes    int64 // bytes checkpoints dropped
	TornTruncations int
	Warnings        []string
	Groups, Records int64 // commits (one fsync each under Sync), records they carried
}

// Log is the write-ahead log. All methods are safe for concurrent use.
type Log struct {
	opts Options
	path string

	mu  sync.Mutex // guards everything below
	log *tsfile.RecordLog
	// groups and records count commits and the records they carried.
	groups, records int64

	warnings     []string
	torn         int
	retiredBytes int64
}

// CheckFile refuses name, a file in the database directory dir, when it is
// a segment of the WAL older builds wrote (wal-<seq>.log), a format this
// build does not replay. Such a directory is upgraded by a clean Close
// under the build that wrote it, which flushes every record, and then
// removing its wal-*.log files.
func CheckFile(dir, name string) error {
	seq, ok := strings.CutPrefix(name, "wal-")
	seq, isLog := strings.CutSuffix(seq, ".log")
	if !ok || !isLog || seq == "" || strings.Trim(seq, "0123456789") != "" {
		return nil
	}
	return fmt.Errorf("wal: %s is a segment of an older build's WAL, which this build does not replay: "+
		"close the directory cleanly under that build, then remove its wal-*.log files", filepath.Join(dir, name))
}

// Open replays o.Dir's wal.log (created if missing) in log order and
// returns the log positioned for appending. record applies one caller
// payload. checkpoint reports a checkpoint: everything record replayed so
// far is durable elsewhere and must be dropped. A crash may legally have
// torn the tail mid-append: the valid prefix is kept with a warning — the
// torn record was never acknowledged.
func Open(o Options, record func(payload []byte) error, checkpoint func()) (*Log, error) {
	entries, err := os.ReadDir(o.Dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	for _, ent := range entries {
		if err := CheckFile(o.Dir, ent.Name()); err != nil {
			return nil, err
		}
	}
	l := &Log{opts: o, path: filepath.Join(o.Dir, fileName)}
	log, recs, err := tsfile.OpenRecordLog(l.path, false)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if torn, _ := log.Torn(); torn > 0 {
		l.warnings = append(l.warnings, fmt.Sprintf("%s: torn tail, %d bytes truncated", fileName, torn))
		l.torn++
	}
	for i, rec := range recs {
		if err := replay(rec, record, checkpoint); err != nil {
			log.Close()
			return nil, fmt.Errorf("wal record %d: %w", i, err)
		}
	}
	l.log = log
	return l, nil
}

// replay routes one recovered record: the log's own checkpoints are
// applied here, everything else goes to the caller.
func replay(rec []byte, record func([]byte) error, checkpoint func()) error {
	switch {
	case len(rec) == 0:
		return errors.New("empty record")
	case rec[0] != opCheckpoint:
		return record(rec)
	case len(rec) != 1:
		return fmt.Errorf("wal checkpoint: %d trailing bytes", len(rec)-1)
	}
	checkpoint()
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
// later point replays nothing the checkpoint covers, and truncates the
// file. An empty log is left alone. The caller holds the engine's lock
// from the flush, so no new commit can slip in between.
func (l *Log) Checkpoint() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.log.Size() == 0 {
		return nil
	}
	if err := l.step("flush.walreset"); err != nil {
		return err
	}
	if err := l.log.Append([][]byte{{opCheckpoint}}, l.opts.Sync); err != nil {
		return err
	}
	if err := l.step("wal.retire"); err != nil {
		return err
	}
	l.retiredBytes += l.log.Size()
	return l.log.Truncate()
}

// Capture pins one instant of the log for an online backup: the bytes of
// its file, which keeps growing afterwards. Its size is tracked in memory
// and always sits on a record boundary, so the prefix is a valid log.
func (l *Log) Capture() (path string, data []byte, err error) {
	if l == nil {
		return "", nil, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	data = make([]byte, l.log.Size())
	f, err := os.Open(l.path)
	if err == nil {
		_, err = io.ReadFull(f, data)
		f.Close()
	}
	if err != nil {
		return "", nil, fmt.Errorf("wal: capture: %w", err)
	}
	return l.path, data, nil
}

// Stats summarizes the log; zero for a disabled log.
func (l *Log) Stats() Stats {
	if l == nil {
		return Stats{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Bytes:           l.log.Size(),
		RetiredBytes:    l.retiredBytes,
		TornTruncations: l.torn,
		Warnings:        append([]string(nil), l.warnings...),
		Groups:          l.groups,
		Records:         l.records,
	}
}

// Close releases the file handle. Nothing is flushed beyond what Commit
// already synced, so it is also how a kill is simulated.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.log.Close()
}
