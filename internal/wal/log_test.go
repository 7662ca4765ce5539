package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// replayed collects what Open hands back the way the engine does: a
// checkpoint drops every record replayed before it.
type replayed struct {
	recs        [][]byte
	checkpoints int
}

func (r *replayed) record(p []byte) error {
	r.recs = append(r.recs, bytes.Clone(p))
	return nil
}

func (r *replayed) checkpoint() {
	r.recs = nil
	r.checkpoints++
}

func open(t *testing.T, o Options) (*Log, *replayed) {
	t.Helper()
	r := &replayed{}
	l, err := Open(o, r.record, r.checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, r
}

// rec builds a payload: op 3, then body.
func rec(body string) []byte {
	return append([]byte{3}, body...)
}

// commit commits recs as one group.
func commit(t *testing.T, l *Log, recs ...[]byte) {
	t.Helper()
	if err := l.Commit(recs); err != nil {
		t.Fatal(err)
	}
}

// walFiles lists the log files in dir.
func walFiles(t *testing.T, dir string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "wal*"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range m {
		m[i] = filepath.Base(m[i])
	}
	return m
}

// frame is one record as the log's file holds it.
func frame(p []byte) []byte {
	b := binary.AppendUvarint(nil, uint64(len(p)))
	b = append(b, p...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(p))
}

// TestGroupCommit pins the committer's batching semantics: one Commit of N
// records is one group (one sync), appended to the log's one file.
func TestGroupCommit(t *testing.T) {
	dir := t.TempDir()
	l, _ := open(t, Options{Dir: dir, Sync: true})
	var recs [][]byte
	for i := 0; i < 10; i++ {
		recs = append(recs, rec(fmt.Sprint(i)))
	}
	commit(t, l, recs...)
	st := l.Stats()
	if st.Groups != 1 || st.Records != 10 {
		t.Fatalf("groups = %d, records = %d; want 1 and 10 (one commit, one sync)", st.Groups, st.Records)
	}
	if files := walFiles(t, dir); len(files) != 1 || files[0] != "wal.log" {
		t.Fatalf("files %v; want wal.log alone", files)
	}
}

// TestGroupCommitConcurrent: the log is safe for concurrent committers.
// Each commit is one group (one sync) however many callers race, every
// acknowledged record replays after a kill, and each committer's records
// keep their order.
func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	o := Options{Dir: dir, Sync: true}
	l, _ := open(t, o)
	const writers, rounds, perCommit = 8, 10, 6
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				var recs [][]byte
				for j := 0; j < perCommit; j++ {
					recs = append(recs, rec(fmt.Sprintf("w%d-%03d", w, i*perCommit+j)))
				}
				if err := l.Commit(recs); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Records != writers*rounds*perCommit {
		t.Fatalf("records = %d, want %d", st.Records, writers*rounds*perCommit)
	}
	if st.Groups != writers*rounds {
		t.Fatalf("groups = %d, want one per commit (%d)", st.Groups, writers*rounds)
	}
	l.Close() // nothing beyond the acknowledged syncs: a kill

	_, r := open(t, o)
	if len(r.recs) != writers*rounds*perCommit {
		t.Fatalf("replayed %d records, want %d", len(r.recs), writers*rounds*perCommit)
	}
	last := map[byte]string{}
	for _, p := range r.recs {
		w, body := p[2], string(p[1:])
		if body <= last[w] {
			t.Fatalf("writer %c out of order: %q after %q", w, body, last[w])
		}
		last[w] = body
	}
}

// TestFailedGroupClaimsNothing: a group that fails before any byte is
// written acknowledges none of its records and leaves the log as it was.
func TestFailedGroupClaimsNothing(t *testing.T) {
	crash := errors.New("crash")
	var armed bool
	l, _ := open(t, Options{Dir: t.TempDir(), Step: func(site string) error {
		if armed && site == "wal.group" {
			return crash
		}
		return nil
	}})
	armed = true
	if err := l.Commit([][]byte{rec("a"), rec("b")}); !errors.Is(err, crash) {
		t.Fatalf("commit = %v, want the injected crash", err)
	}
	if st := l.Stats(); st.Records != 0 || st.Bytes != 0 {
		t.Fatalf("failed group left state: %+v", st)
	}
}

// TestCheckpointRetire: a checkpoint empties the log and counts what it
// dropped; records committed after it replay after a kill; a checkpoint of
// an empty log does nothing, not even a step; and a
// crash between the checkpoint record and the truncation (wal.retire)
// replays nothing the checkpoint covers.
func TestCheckpointRetire(t *testing.T) {
	dir := t.TempDir()
	var sites []string
	crash := errors.New("crash")
	var crashAt string
	o := Options{Dir: dir, Step: func(site string) error {
		sites = append(sites, site)
		if site == crashAt {
			return crash
		}
		return nil
	}}
	l, _ := open(t, o)
	for i := 0; i < 12; i++ {
		commit(t, l, rec(fmt.Sprintf("flushed-%02d", i)))
	}
	before := l.Stats()
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after := l.Stats()
	if after.Bytes != 0 || after.RetiredBytes != before.Bytes+int64(len(frame([]byte{opCheckpoint}))) {
		t.Fatalf("after the checkpoint: %+v (before %+v), want an empty file and every record and the checkpoint retired", after, before)
	}
	sites = nil
	if err := l.Checkpoint(); err != nil || len(sites) != 0 || l.Stats().RetiredBytes != after.RetiredBytes {
		t.Fatalf("checkpoint of an empty log: %v, sites %v, %+v", err, sites, l.Stats())
	}
	commit(t, l, rec("unflushed"), rec("last"))
	l.Close()

	l2, r := open(t, o)
	if len(r.recs) != 2 || string(r.recs[0][1:]) != "unflushed" || r.checkpoints != 0 {
		t.Fatalf("replay after the checkpoint: %q, %d checkpoints", r.recs, r.checkpoints)
	}
	crashAt = "wal.retire"
	if err := l2.Checkpoint(); !errors.Is(err, crash) {
		t.Fatalf("checkpoint = %v, want the crash at wal.retire", err)
	}
	l2.Close()
	crashAt = ""
	_, r = open(t, o)
	if len(r.recs) != 0 || r.checkpoints != 1 {
		t.Fatalf("replay after a crash at wal.retire: %q, %d checkpoints; want the checkpoint to drop both records", r.recs, r.checkpoints)
	}
}

// TestDeleteSegmentSurvivesUntilCheckpoint: a delete record stays in the
// log, however many records follow it, until the next checkpoint: it
// replays after a kill, and only the checkpoint drops it.
func TestDeleteSegmentSurvivesUntilCheckpoint(t *testing.T) {
	dir := t.TempDir()
	l, _ := open(t, Options{Dir: dir})
	del := []byte{4, 'd', 'e', 'l'}
	commit(t, l, del)
	for i := 0; i < 20; i++ {
		commit(t, l, rec(fmt.Sprintf("later-record-%02d", i)))
	}
	l.Close()
	l2, r := open(t, Options{Dir: dir})
	if len(r.recs) != 21 || !bytes.Equal(r.recs[0], del) {
		t.Fatalf("replayed %d records, first %x; want the delete and the 20 after it", len(r.recs), r.recs[0])
	}
	if err := l2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	if _, r := open(t, Options{Dir: dir}); len(r.recs) != 0 {
		t.Fatalf("replayed %d records after the checkpoint, want none", len(r.recs))
	}
}

// TestTornTail: the log may legally end in a partial record (a crash
// mid-append); Open recovers the valid prefix, says so, and leaves the log
// appendable.
func TestTornTail(t *testing.T) {
	dir := t.TempDir()
	l, _ := open(t, Options{Dir: dir})
	commit(t, l, rec("first"), rec("second"))
	l.Close()
	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x09, 0x03, 'x'}) // a record of 9 bytes, 2 present
	f.Close()

	l2, r := open(t, Options{Dir: dir})
	st := l2.Stats()
	if len(r.recs) != 2 || st.TornTruncations != 1 || len(st.Warnings) != 1 || st.Warnings[0] != "wal.log: torn tail, 3 bytes truncated" {
		t.Fatalf("torn tail: replayed %q, %+v", r.recs, st)
	}
	commit(t, l2, rec("third"))
	l2.Close()
	if _, r := open(t, Options{Dir: dir}); len(r.recs) != 3 || string(r.recs[2][1:]) != "third" {
		t.Fatalf("reopen: replayed %q", r.recs)
	}
}

// TestOlderBuildRefused: testdata/parent-5b6b9ab holds the segmented WAL
// an older build left (two wal-<seq>.log segments). Open refuses it with an
// error naming the first segment, and leaves every file as it was: no
// wal.log beside records it cannot replay.
func TestOlderBuildRefused(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "parent-5b6b9ab")
	names := []string{"wal-0000000000000001.log", "wal-0000000000000002.log"}
	want := map[string][]byte{}
	for _, name := range names {
		raw, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		want[name] = raw
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := Open(Options{Dir: dir}, func([]byte) error { return nil }, func() {})
	if err == nil {
		l.Close()
		t.Fatal("Open replayed an older build's segments")
	}
	if !strings.Contains(err.Error(), names[0]) {
		t.Fatalf("error %q does not name %s", err, names[0])
	}
	if files := walFiles(t, dir); !reflect.DeepEqual(files, names) {
		t.Fatalf("files after the refusal: %v, want %v", files, names)
	}
	for name, raw := range want {
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, raw) {
			t.Fatalf("%s changed (%v)", name, err)
		}
	}
}

// TestResetAndCapture: Capture is a consistent image — the log's file and
// its whole records so far — and the checkpoint that resets the log leaves
// the file empty.
func TestResetAndCapture(t *testing.T) {
	dir := t.TempDir()
	l, _ := open(t, Options{Dir: dir})
	commit(t, l, rec("first"), rec("second"))
	commit(t, l, rec("third"))
	path, data, err := l.Capture()
	if err != nil {
		t.Fatal(err)
	}
	want := append(append(frame(rec("first")), frame(rec("second"))...), frame(rec("third"))...)
	if path != filepath.Join(dir, "wal.log") || !bytes.Equal(data, want) {
		t.Fatalf("capture: %s, %x; want wal.log and %x", path, data, want)
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Bytes != 0 {
		t.Fatalf("after the checkpoint: %+v", st)
	}
	if files := walFiles(t, dir); len(files) != 1 || files[0] != "wal.log" {
		t.Fatalf("files after the checkpoint: %v, want wal.log alone", files)
	}
	if _, data, err := l.Capture(); err != nil || len(data) != 0 {
		t.Fatalf("capture after the checkpoint: %v, %d bytes", err, len(data))
	}
}

// TestNilLog: a nil *Log is a disabled log.
func TestNilLog(t *testing.T) {
	var l *Log
	if err := errors.Join(l.Commit([][]byte{rec("x")}), l.Checkpoint(), l.Close()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Capture(); err != nil || !reflect.DeepEqual(l.Stats(), Stats{}) {
		t.Fatal("disabled log reported state")
	}
}

// FuzzOpen hands arbitrary bytes to Open as the log's file. Open must
// never panic, and whatever it replays — caller records and checkpoints,
// in order — must be whole records: framed again, they are exactly the
// file's first bytes.
func FuzzOpen(f *testing.F) {
	var valid []byte
	for _, p := range [][]byte{rec("a"), {4, 1, 's', 2, 4, 6}, {opCheckpoint}, rec("bb")} {
		valid = append(valid, frame(p)...)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-2]) // torn tail
	f.Add([]byte{})
	f.Add(frame(nil))                        // an empty record
	f.Add(frame([]byte{opCheckpoint, 0, 1})) // a checkpoint with a body
	f.Add(bytes.Repeat([]byte{0xFF}, 16))
	f.Fuzz(func(t *testing.T, b []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal.log"), b, 0o644); err != nil {
			t.Fatal(err)
		}
		var replayed []byte
		l, err := Open(Options{Dir: dir},
			func(p []byte) error {
				replayed = append(replayed, frame(p)...)
				return nil
			},
			func() { replayed = append(replayed, frame([]byte{opCheckpoint})...) })
		if err != nil {
			return
		}
		defer l.Close()
		if !bytes.HasPrefix(b, replayed) {
			t.Fatalf("replayed %x, not a prefix of the file %x", replayed, b)
		}
		if st := l.Stats(); st.Bytes != int64(len(replayed)) || (st.TornTruncations == 1) != (len(replayed) < len(b)) {
			t.Fatalf("replayed %d bytes of %d, stats %+v", len(replayed), len(b), st)
		}
	})
}
