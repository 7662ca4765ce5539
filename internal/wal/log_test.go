package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"m4lsm/internal/tsfile"
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

// rec builds a payload: op 3, shard tag 0, then body.
func rec(body string) []byte {
	return append([]byte{3, 0}, body...)
}

// commit commits recs as one group.
func commit(t *testing.T, l *Log, recs ...[]byte) {
	t.Helper()
	if err := l.Commit(recs); err != nil {
		t.Fatal(err)
	}
}

// legacyDir copies the two segments testdata/parent-5b6b9ab holds (see
// TestParentDirectoryReplays) into a fresh directory: a log an older build
// rotated, which Open must still replay.
func legacyDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range []string{"wal-0000000000000001.log", "wal-0000000000000002.log"} {
		raw, err := os.ReadFile(filepath.Join("testdata", "parent-5b6b9ab", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// walFiles lists the segment files in dir.
func walFiles(t *testing.T, dir string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range m {
		m[i] = filepath.Base(m[i])
	}
	return m
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
	if files := walFiles(t, dir); len(files) != 1 || files[0] != "wal-0000000000000001.log" || st.Segments != 1 {
		t.Fatalf("files %v, %d segments; want wal-0000000000000001.log alone", files, st.Segments)
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
	if st.Segments != 1 {
		t.Fatalf("segments = %d, want the one file", st.Segments)
	}
	l.Close() // nothing beyond the acknowledged syncs: a kill

	_, r := open(t, o)
	if len(r.recs) != writers*rounds*perCommit {
		t.Fatalf("replayed %d records, want %d", len(r.recs), writers*rounds*perCommit)
	}
	last := map[byte]string{}
	for _, p := range r.recs {
		w, body := p[3], string(p[2:])
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
	if st := l.Stats(); st.Records != 0 || st.Bytes != tsfile.SegmentHeaderLen {
		t.Fatalf("failed group left state: %+v", st)
	}
}

// TestCheckpointRetire: a checkpoint truncates the log to its header and
// counts what it dropped; records committed after it replay after a kill;
// a checkpoint of a header-only log does nothing, not even a step; and a
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
	if after.Segments != 1 || after.Bytes != tsfile.SegmentHeaderLen || after.RetiredBytes <= before.Bytes-tsfile.SegmentHeaderLen {
		t.Fatalf("after the checkpoint: %+v (before %+v), want one header-only file and every record retired", after, before)
	}
	sites = nil
	if err := l.Checkpoint(); err != nil || len(sites) != 0 || l.Stats().RetiredBytes != after.RetiredBytes {
		t.Fatalf("checkpoint of an empty log: %v, sites %v, %+v", err, sites, l.Stats())
	}
	commit(t, l, rec("unflushed"), rec("last"))
	l.Close()

	l2, r := open(t, o)
	if len(r.recs) != 2 || string(r.recs[0][2:]) != "unflushed" || r.checkpoints != 0 {
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
	del := []byte{4, 0, 'd', 'e', 'l'}
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

// TestTornTailAndTornCreation: the newest segment may legally end in a
// partial record (crash mid-append) or be nothing but a partial header
// (crash mid-creation); both recover the valid prefix, say so, and leave
// the log appendable. The legacy directory's segment 2 ends in a torn
// 3-byte tail; a partial header as segment 3 is what an older build's
// crash mid-rotation left.
func TestTornTailAndTornCreation(t *testing.T) {
	dir := legacyDir(t)
	l, r := open(t, Options{Dir: dir})
	st := l.Stats()
	if len(r.recs) != 8 || st.TornTruncations != 1 || len(st.Warnings) != 1 || !strings.Contains(st.Warnings[0], "torn tail, 3 bytes") {
		t.Fatalf("torn tail: replayed %q, %+v", r.recs, st)
	}
	commit(t, l, rec("ninth"))
	l.Close()
	os.WriteFile(SegmentPath(dir, 3), []byte("M4W"), 0o644)

	l2, r := open(t, Options{Dir: dir})
	st = l2.Stats()
	if len(r.recs) != 9 || st.TornTruncations != 1 || len(st.Warnings) != 1 || !strings.Contains(st.Warnings[0], "torn creation") {
		t.Fatalf("torn creation: replayed %q, %+v", r.recs, st)
	}
	commit(t, l2, rec("tenth"))
	if _, path, _, err := l2.Capture(); err != nil || path != SegmentPath(dir, 3) {
		t.Fatalf("after recreating segment 3: appending to %s (%v)", path, err)
	}
	l2.Close()
	if _, r := open(t, Options{Dir: dir}); len(r.recs) != 10 || string(r.recs[9][2:]) != "tenth" {
		t.Fatalf("reopen: replayed %q", r.recs)
	}
}

// TestCorruptSealedSegment: in a legacy directory, a sealed segment with a
// flipped byte is set aside on open, with a warning, and everything after
// it still replays.
func TestCorruptSealedSegment(t *testing.T) {
	dir := legacyDir(t)
	raw, err := os.ReadFile(SegmentPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	raw[tsfile.SegmentHeaderLen+2] ^= 0xff
	os.WriteFile(SegmentPath(dir, 1), raw, 0o644)

	l, r := open(t, Options{Dir: dir})
	st := l.Stats()
	if st.QuarantinedSegments != 1 || !strings.Contains(st.Warnings[0], "corrupt") {
		t.Fatalf("open over a corrupt sealed segment: %+v", st)
	}
	if len(r.recs) != 4 || fmt.Sprintf("%x", r.recs[0]) != "030002733002640000000000001440780000000000001840" {
		t.Fatalf("replayed %x, want segment 2's four records", r.recs)
	}
	if m, _ := filepath.Glob(filepath.Join(dir, "wal-*.log.bad*")); len(m) != 1 {
		t.Fatalf("quarantined files: %v", m)
	}
}

// TestResetAndCapture: Capture is a consistent image (the legacy segments'
// paths plus a parseable prefix of the log's file), and the checkpoint
// that resets the log unlinks the legacy segments and leaves the newest,
// header-only.
func TestResetAndCapture(t *testing.T) {
	dir := legacyDir(t)
	l, _ := open(t, Options{Dir: dir})
	commit(t, l, rec("ninth"))
	legacy, path, data, err := l.Capture()
	if err != nil {
		t.Fatal(err)
	}
	if len(legacy) != 1 || legacy[0].Seq != 1 || path != SegmentPath(dir, 2) {
		t.Fatalf("capture: legacy %v, file %s", legacy, path)
	}
	if hdr, recs, err := tsfile.ParseSegment(data); err != nil || hdr.Seq != 2 || len(recs) != 5 {
		t.Fatalf("captured prefix: %v, %v, %d records", err, hdr, len(recs))
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Segments != 1 || st.Bytes != tsfile.SegmentHeaderLen || st.RetiredSegments != 1 {
		t.Fatalf("after the checkpoint: %+v", st)
	}
	if files := walFiles(t, dir); len(files) != 1 || files[0] != "wal-0000000000000002.log" {
		t.Fatalf("files after the checkpoint: %v, want segment 2 alone", files)
	}
	if legacy, _, data, err := l.Capture(); err != nil || len(legacy) != 0 || len(data) != tsfile.SegmentHeaderLen {
		t.Fatalf("capture after the checkpoint: %v, %v, %d bytes", err, legacy, len(data))
	}
}

// TestNilLog: a nil *Log is a disabled log.
func TestNilLog(t *testing.T) {
	var l *Log
	if err := errors.Join(l.Commit([][]byte{rec("x")}), l.Checkpoint(), l.Close()); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := l.Capture(); err != nil || !reflect.DeepEqual(l.Stats(), Stats{}) {
		t.Fatal("disabled log reported state")
	}
}

// TestParentDirectoryReplays is the on-disk compatibility pin: testdata/
// parent-5b6b9ab holds the WAL of a 2-shard engine written and killed
// mid-workload by the commit before this package existed (when the log
// lived inside internal/lsm) — two segments, a flush checkpoint, a
// completed delete, a delete that reached the WAL but not the mods sidecar,
// and a torn 3-byte tail. It must replay to the same records, in the same
// order. Its checkpoint was written under two stripes, so it is ignored:
// every record replays (merely redundant).
func TestParentDirectoryReplays(t *testing.T) {
	dir := legacyDir(t)
	l, r := open(t, Options{Dir: dir}) // Open truncates the torn tail
	want := []string{
		"030102733101020000000000004540",                   // s1 (shard 1) t=1
		"03000273300214000000000000f03f280000000000000040", // s0 (shard 0) t=10,20
		"0300027330013c0000000000000840",                   // s0 t=30
		"030002733001500000000000001040",                   // s0 t=40: flush, checkpoint follows
		"030002733002640000000000001440780000000000001840", // segment 2: s0 t=50,60
		"0401027331020000",                                 // delete s1 [0,0], completed
		"030102733102040000000000804540060000000000004640", // s1 t=2,3
		"0400027330036e8201",                               // delete s0 [55,65], WAL only
	}
	var got []string
	for _, p := range r.recs {
		got = append(got, fmt.Sprintf("%x", p))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed records\n got %q\nwant %q", got, want)
	}
	if r.checkpoints != 0 {
		t.Fatalf("checkpoints = %d, want 0 (the 2-stripe checkpoint is ignored)", r.checkpoints)
	}
	st := l.Stats()
	if st.Segments != 2 || st.Bytes != 119+106 || st.TornTruncations != 1 ||
		len(st.Warnings) != 1 || st.Warnings[0] != "wal segment 2: torn tail, 3 bytes truncated" {
		t.Fatalf("stats = %+v", st)
	}
	// A checkpoint this log writes is honoured on the next open: crash
	// between it and the unlinking of segment 1.
	l.opts.Step = func(site string) error {
		if site == "wal.retire" {
			return errors.New("crash")
		}
		return nil
	}
	if err := l.Checkpoint(); err == nil {
		t.Fatal("checkpoint passed the crash at wal.retire")
	}
	l.Close()
	_, r2 := open(t, Options{Dir: dir})
	if r2.checkpoints != 1 || len(r2.recs) != 0 {
		t.Fatalf("reopen after a checkpoint: %d checkpoints, %d records", r2.checkpoints, len(r2.recs))
	}
}
