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
// checkpoint drops every record replayed before it. First byte 4 (the
// engine's delete op) claims nothing; every other payload claims the
// watermark.
type replayed struct {
	recs        [][]byte
	checkpoints int
}

func (r *replayed) record(p []byte) (bool, error) {
	r.recs = append(r.recs, bytes.Clone(p))
	return p[0] != 4, nil
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
func rec(body string) Record {
	return Record{Payload: append([]byte{3, 0}, body...)}
}

func commit(t *testing.T, l *Log, recs ...Record) []Record {
	t.Helper()
	if err := l.Commit(recs); err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestGroupCommit pins the committer's batching semantics: one Commit of N
// records is one group (one sync), every record is acknowledged with its
// landing segment, and the watermark is claimed.
func TestGroupCommit(t *testing.T) {
	l, _ := open(t, Options{Dir: t.TempDir(), Sync: true})
	var recs []Record
	for i := 0; i < 10; i++ {
		recs = append(recs, rec(fmt.Sprint(i)))
	}
	commit(t, l, recs...)
	st := l.Stats()
	if st.Groups != 1 || st.Records != 10 {
		t.Fatalf("groups = %d, records = %d; want 1 and 10 (one commit, one sync)", st.Groups, st.Records)
	}
	for i, r := range recs {
		if r.Seq != 1 {
			t.Fatalf("record %d landed in segment %d, want 1", i, r.Seq)
		}
	}
	if l.watermark != 1 {
		t.Fatalf("watermark = %d, want 1", l.watermark)
	}
}

// TestGroupCommitConcurrent: the log is safe for concurrent committers.
// Each commit is one group (one sync) however many callers race, every
// acknowledged record replays after a kill, and each committer's records
// keep their order.
func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	o := Options{Dir: dir, Sync: true, SegmentBytes: 256}
	l, _ := open(t, o)
	const writers, rounds, perCommit = 8, 10, 6
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				var recs []Record
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
	if st.Segments < 3 {
		t.Fatalf("segments = %d, want rotation under 256-byte segments", st.Segments)
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
// written acknowledges none of its records and claims no watermark or pin.
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
	pinned := rec("b")
	pinned.Pin = true
	if err := l.Commit([]Record{rec("a"), pinned}); !errors.Is(err, crash) {
		t.Fatalf("commit = %v, want the injected crash", err)
	}
	if l.watermark != 0 || len(l.pins) != 0 || l.Stats().Records != 0 {
		t.Fatalf("failed group left state: watermark %d, pins %v, stats %+v", l.watermark, l.pins, l.Stats())
	}
}

// TestCheckpointRetire: a checkpoint frees every sealed segment below the
// oldest unflushed record, the segment holding that record stays until the
// next checkpoint, and once nothing is unflushed the active segment
// truncates to its header.
func TestCheckpointRetire(t *testing.T) {
	dir := t.TempDir()
	o := Options{Dir: dir, SegmentBytes: 64}
	l, _ := open(t, o)
	for i := 0; i < 12; i++ {
		commit(t, l, rec(fmt.Sprintf("flushed-%02d", i)))
	}
	if err := l.Retire(); err != nil || l.Stats().RetiredSegments != 0 {
		t.Fatalf("retired before any checkpoint: %v, %+v", err, l.Stats())
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tail := commit(t, l, rec("unflushed"))[0]
	commit(t, l, rec("rotate-past-the-unflushed-record-..........................."), rec("last"))
	before := l.Stats()
	if before.Segments < 4 || tail.Seq == 1 || tail.Seq == l.activeSeq {
		t.Fatalf("setup: %d segments, unflushed record in %d, active %d", before.Segments, tail.Seq, l.activeSeq)
	}
	if err := l.Retire(); err != nil {
		t.Fatal(err)
	}
	after := l.Stats()
	if want := int64(tail.Seq - 1); after.RetiredSegments != want {
		t.Fatalf("retired %d segments, want the %d below the unflushed record's", after.RetiredSegments, want)
	}
	if after.Bytes >= before.Bytes || after.RetiredBytes == 0 {
		t.Fatalf("bytes %d -> %d, retired bytes %d", before.Bytes, after.Bytes, after.RetiredBytes)
	}
	if sealed := l.Sealed(); sealed[0].Seq != tail.Seq {
		t.Fatalf("oldest sealed segment = %d, want the unflushed record's %d", sealed[0].Seq, tail.Seq)
	}
	l.Close()

	// A kill here replays from the unflushed record on and re-claims the
	// watermark at its segment.
	l2, r := open(t, o)
	if len(r.recs) != 3 || string(r.recs[0][2:]) != "unflushed" {
		t.Fatalf("replay after the checkpoint: %q", r.recs)
	}
	if l2.watermark != tail.Seq {
		t.Fatalf("watermark after replay = %d, want %d", l2.watermark, tail.Seq)
	}
	if err := l2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := l2.Retire(); err != nil {
		t.Fatal(err)
	}
	if st := l2.Stats(); st.Segments != 1 || st.Bytes != tsfile.SegmentHeaderLen {
		t.Fatalf("all-clear retire left %+v, want one header-only segment", st)
	}
}

// TestPinHoldsSegment: a pinned record claims no watermark but keeps its
// segment (and blocks the all-clear truncation) until Unpin.
func TestPinHoldsSegment(t *testing.T) {
	l, _ := open(t, Options{Dir: t.TempDir(), SegmentBytes: 32})
	pinned := Record{Payload: []byte{4, 0, 'd', 'e', 'l'}, Pin: true}
	got := commit(t, l, pinned)[0]
	commit(t, l, rec("fill-the-first-segment-past-32-bytes"), rec("x"))
	if l.watermark != got.Seq {
		t.Fatalf("setup: watermark %d, pinned segment %d", l.watermark, got.Seq)
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := l.Retire(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.RetiredSegments != 0 || st.Segments < 2 {
		t.Fatalf("pinned segment retired: %+v", st)
	}
	l.Unpin(got.Seq)
	if err := l.Retire(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Segments != 1 || st.Bytes != tsfile.SegmentHeaderLen {
		t.Fatalf("after unpin: %+v, want one header-only segment", st)
	}
}

// TestTornTailAndTornCreation: the newest segment may legally end in a
// partial record (crash mid-append) or be nothing but a partial header
// (crash mid-rotation); both recover the valid prefix, say so, and leave
// the log appendable.
func TestTornTailAndTornCreation(t *testing.T) {
	dir := t.TempDir()
	o := Options{Dir: dir, SegmentBytes: 32}
	l, _ := open(t, o)
	commit(t, l, rec("first-record-filling-segment-one"), rec("second"))
	l.Close()
	f, err := os.OpenFile(SegmentPath(dir, 2), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x09, 0x01, 0x02}) // length 9, 2 bytes present
	f.Close()

	l2, r := open(t, o)
	st := l2.Stats()
	if len(r.recs) != 2 || st.TornTruncations != 1 || len(st.Warnings) != 1 || !strings.Contains(st.Warnings[0], "torn tail, 3 bytes") {
		t.Fatalf("torn tail: replayed %q, %+v", r.recs, st)
	}
	next := commit(t, l2, rec("third"))[0].Seq + 1
	l2.Close()
	os.WriteFile(SegmentPath(dir, next), []byte("M4W"), 0o644)

	l3, r := open(t, o)
	st = l3.Stats()
	if len(r.recs) != 3 || st.TornTruncations != 1 || len(st.Warnings) != 1 || !strings.Contains(st.Warnings[0], "torn creation") {
		t.Fatalf("torn creation: replayed %q, %+v", r.recs, st)
	}
	if got := commit(t, l3, rec("fourth"))[0]; got.Seq != next {
		t.Fatalf("after recreating segment %d: landed in %d", next, got.Seq)
	}
}

// TestCorruptSealedSegment: a sealed segment with a flipped byte is set
// aside on open (everything else still replays), and the scrubber's
// Verify/Quarantine pair does the same to a live log.
func TestCorruptSealedSegment(t *testing.T) {
	dir := t.TempDir()
	o := Options{Dir: dir, SegmentBytes: 32}
	l, _ := open(t, o)
	for i := 0; i < 4; i++ {
		commit(t, l, rec(fmt.Sprintf("record-%d-filling-a-32-byte-segment", i)))
	}
	flip := func(seq uint64) {
		raw, err := os.ReadFile(SegmentPath(dir, seq))
		if err != nil {
			t.Fatal(err)
		}
		raw[tsfile.SegmentHeaderLen+2] ^= 0xff
		os.WriteFile(SegmentPath(dir, seq), raw, 0o644)
	}
	sealed := l.Sealed()
	if len(sealed) != 3 || sealed[0].Verify() != nil {
		t.Fatalf("setup: sealed %v", sealed)
	}
	flip(1)
	err := sealed[0].Verify()
	if !errors.Is(err, tsfile.ErrCorrupt) {
		t.Fatalf("verify of flipped segment = %v", err)
	}
	if err := l.Quarantine(sealed[0], err); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.QuarantinedSegments != 1 || st.Segments != 3 || l.Sealed()[0].Seq != 2 {
		t.Fatalf("after quarantine: %+v", st)
	}
	l.Close()

	flip(3)
	l2, r := open(t, o)
	st := l2.Stats()
	if st.QuarantinedSegments != 1 || !strings.Contains(st.Warnings[0], "corrupt") {
		t.Fatalf("reopen over corrupt sealed segment: %+v", st)
	}
	if len(r.recs) != 2 { // segments 2 and 4 survive
		t.Fatalf("replayed %d records, want 2", len(r.recs))
	}
	if m, _ := filepath.Glob(filepath.Join(dir, "wal-*.log.bad*")); len(m) != 2 {
		t.Fatalf("quarantined files: %v", m)
	}
}

// TestResetAndCapture: Capture is a consistent image (sealed paths plus a
// parseable prefix of the active segment); Reset drops everything.
func TestResetAndCapture(t *testing.T) {
	l, _ := open(t, Options{Dir: t.TempDir(), SegmentBytes: 32})
	commit(t, l, rec("first-record-filling-segment-one"), rec("second"))
	sealed, activePath, active, err := l.Capture()
	if err != nil {
		t.Fatal(err)
	}
	if len(sealed) != 1 || filepath.Base(activePath) != filepath.Base(SegmentPath("", 2)) {
		t.Fatalf("capture: sealed %v, active %s", sealed, activePath)
	}
	if hdr, recs, err := tsfile.ParseSegment(active); err != nil || hdr.Seq != 2 || len(recs) != 1 {
		t.Fatalf("captured active prefix: %v, %v, %d records", err, hdr, len(recs))
	}
	pinned := Record{Payload: []byte{4, 0}, Pin: true}
	commit(t, l, pinned)
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Segments != 1 || st.Bytes != tsfile.SegmentHeaderLen || l.watermark != 0 || len(l.pins) != 0 {
		t.Fatalf("after reset: %+v, watermark %d, pins %v", st, l.watermark, l.pins)
	}
}

// TestNilLog: a nil *Log is a disabled log.
func TestNilLog(t *testing.T) {
	var l *Log
	if err := errors.Join(l.Commit([]Record{rec("x")}), l.Checkpoint(), l.Retire(), l.Reset(), l.Close()); err != nil {
		t.Fatal(err)
	}
	l.Unpin(1)
	if _, _, _, err := l.Capture(); err != nil || l.Sealed() != nil || !reflect.DeepEqual(l.Stats(), Stats{}) {
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
// every record replays (merely redundant) and the one watermark sits at the
// first segment.
func TestParentDirectoryReplays(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"wal-0000000000000001.log", "wal-0000000000000002.log"} {
		raw, err := os.ReadFile(filepath.Join("testdata", "parent-5b6b9ab", name))
		if err != nil {
			t.Fatal(err)
		}
		os.WriteFile(filepath.Join(dir, name), raw, 0o644) // Open truncates the torn tail
	}
	l, r := open(t, Options{Dir: dir, SegmentBytes: 96})
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
	if l.watermark != 1 {
		t.Fatalf("watermark = %d, want 1", l.watermark)
	}
	st := l.Stats()
	if st.Segments != 2 || st.Bytes != 119+106 || st.TornTruncations != 1 ||
		len(st.Warnings) != 1 || st.Warnings[0] != "wal segment 2: torn tail, 3 bytes truncated" {
		t.Fatalf("stats = %+v", st)
	}
	// A checkpoint this log writes is honoured on the next open.
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, r2 := open(t, Options{Dir: dir, SegmentBytes: 96})
	if r2.checkpoints != 1 || len(r2.recs) != 0 || l2.watermark != 0 {
		t.Fatalf("reopen after a checkpoint: %d checkpoints, %d records, watermark %d", r2.checkpoints, len(r2.recs), l2.watermark)
	}
}
