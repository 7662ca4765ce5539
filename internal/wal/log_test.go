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

// replayed collects what Open hands back: caller payloads claim the shard
// named by their second byte (the engine's tag layout), first byte 4 (the
// engine's delete op) claims nothing.
type replayed struct {
	recs        [][]byte
	checkpoints []int
}

func (r *replayed) record(p []byte) (int, error) {
	r.recs = append(r.recs, bytes.Clone(p))
	if p[0] == 4 {
		return -1, nil
	}
	return int(p[1]), nil
}

func (r *replayed) checkpoint(shard int) { r.checkpoints = append(r.checkpoints, shard) }

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

// rec builds a payload: op 3, shard tag, then body.
func rec(shard int, body string) Record {
	return Record{Payload: append([]byte{3, byte(shard)}, body...), Shard: shard}
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
// landing segment, and the shard's watermark is claimed.
func TestGroupCommit(t *testing.T) {
	l, _ := open(t, Options{Dir: t.TempDir(), Shards: 1, Sync: true})
	var recs []Record
	for i := 0; i < 10; i++ {
		recs = append(recs, rec(0, fmt.Sprint(i)))
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
	if l.pendingMin[0] != 1 {
		t.Fatalf("watermark = %d, want 1", l.pendingMin[0])
	}
}

// TestGroupCommitConcurrent: concurrent committers share groups, a commit
// larger than GroupSize splits, every acknowledged record replays after a
// kill, and each committer's records keep their order.
func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	o := Options{Dir: dir, Shards: 4, Sync: true, GroupSize: 4, SegmentBytes: 256}
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
					recs = append(recs, rec(w%4, fmt.Sprintf("w%d-%03d", w, i*perCommit+j)))
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
	if st.Groups >= st.Records || st.Groups < st.Records/4 {
		t.Fatalf("groups = %d for %d records under GroupSize 4", st.Groups, st.Records)
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
	l, _ := open(t, Options{Dir: t.TempDir(), Shards: 1, Step: func(site string) error {
		if armed && site == "wal.group" {
			return crash
		}
		return nil
	}})
	armed = true
	pinned := rec(0, "b")
	pinned.Pin = true
	if err := l.Commit([]Record{rec(0, "a"), pinned}); !errors.Is(err, crash) {
		t.Fatalf("commit = %v, want the injected crash", err)
	}
	if l.pendingMin[0] != 0 || len(l.pins) != 0 || l.Stats().Records != 0 {
		t.Fatalf("failed group left state: watermark %d, pins %v, stats %+v", l.pendingMin[0], l.pins, l.Stats())
	}
}

// TestCheckpointRetire is the reason the log is segmented: a cold shard
// with one unflushed record pins only the segment holding it. The hot
// shard's checkpoint frees every sealed segment below that — and once no
// shard has anything unflushed, the active segment truncates to its header.
func TestCheckpointRetire(t *testing.T) {
	dir := t.TempDir()
	o := Options{Dir: dir, Shards: 2, SegmentBytes: 64}
	l, _ := open(t, o)
	for i := 0; i < 12; i++ {
		commit(t, l, rec(0, fmt.Sprintf("hot-%02d", i)))
	}
	cold := commit(t, l, rec(1, "cold"))[0]
	commit(t, l, rec(0, "hot-tail-to-rotate-past-the-cold-segment-................"), rec(0, "hot-last"))
	before := l.Stats()
	if before.Segments < 4 || cold.Seq == 1 || cold.Seq == l.activeSeq {
		t.Fatalf("setup: %d segments, cold record in %d, active %d", before.Segments, cold.Seq, l.activeSeq)
	}
	if err := l.Retire(); err != nil || l.Stats().RetiredSegments != 0 {
		t.Fatalf("retired before any checkpoint: %v, %+v", err, l.Stats())
	}

	if err := l.Checkpoint(0); err != nil {
		t.Fatal(err)
	}
	if err := l.Retire(); err != nil {
		t.Fatal(err)
	}
	after := l.Stats()
	if want := int64(cold.Seq - 1); after.RetiredSegments != want {
		t.Fatalf("retired %d segments, want the %d below the cold record's", after.RetiredSegments, want)
	}
	if after.Bytes >= before.Bytes || after.RetiredBytes == 0 {
		t.Fatalf("bytes %d -> %d, retired bytes %d", before.Bytes, after.Bytes, after.RetiredBytes)
	}
	if sealed := l.Sealed(); sealed[0].Seq != cold.Seq {
		t.Fatalf("oldest sealed segment = %d, want the cold record's %d", sealed[0].Seq, cold.Seq)
	}
	l.Close()

	// A kill here replays the cold record, drops the hot ones at the
	// checkpoint, and re-claims only the cold watermark.
	l2, r := open(t, o)
	if !reflect.DeepEqual(r.checkpoints, []int{0}) || string(r.recs[0][2:]) != "cold" {
		t.Fatalf("replay: checkpoints %v, first record %q", r.checkpoints, r.recs[0])
	}
	if !reflect.DeepEqual(l2.pendingMin, []uint64{0, cold.Seq}) {
		t.Fatalf("watermarks after replay = %v, want [0 %d]", l2.pendingMin, cold.Seq)
	}
	if err := l2.Checkpoint(1); err != nil {
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
	l, _ := open(t, Options{Dir: t.TempDir(), Shards: 1, SegmentBytes: 32})
	pinned := Record{Payload: []byte{4, 0, 'd', 'e', 'l'}, Pin: true}
	got := commit(t, l, pinned)[0]
	commit(t, l, rec(0, "fill-the-first-segment-past-32-bytes"), rec(0, "x"))
	if l.pendingMin[0] != got.Seq {
		t.Fatalf("setup: watermark %d, pinned segment %d", l.pendingMin[0], got.Seq)
	}
	if err := l.Checkpoint(0); err != nil {
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
	o := Options{Dir: dir, Shards: 1, SegmentBytes: 32}
	l, _ := open(t, o)
	commit(t, l, rec(0, "first-record-filling-segment-one"), rec(0, "second"))
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
	next := commit(t, l2, rec(0, "third"))[0].Seq + 1
	l2.Close()
	os.WriteFile(SegmentPath(dir, next), []byte("M4W"), 0o644)

	l3, r := open(t, o)
	st = l3.Stats()
	if len(r.recs) != 3 || st.TornTruncations != 1 || len(st.Warnings) != 1 || !strings.Contains(st.Warnings[0], "torn creation") {
		t.Fatalf("torn creation: replayed %q, %+v", r.recs, st)
	}
	if got := commit(t, l3, rec(0, "fourth"))[0]; got.Seq != next {
		t.Fatalf("after recreating segment %d: landed in %d", next, got.Seq)
	}
}

// TestCorruptSealedSegment: a sealed segment with a flipped byte is set
// aside on open (everything else still replays), and the scrubber's
// Verify/Quarantine pair does the same to a live log.
func TestCorruptSealedSegment(t *testing.T) {
	dir := t.TempDir()
	o := Options{Dir: dir, Shards: 1, SegmentBytes: 32}
	l, _ := open(t, o)
	for i := 0; i < 4; i++ {
		commit(t, l, rec(0, fmt.Sprintf("record-%d-filling-a-32-byte-segment", i)))
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
	l, _ := open(t, Options{Dir: t.TempDir(), Shards: 1, SegmentBytes: 32})
	commit(t, l, rec(0, "first-record-filling-segment-one"), rec(0, "second"))
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
	if st := l.Stats(); st.Segments != 1 || st.Bytes != tsfile.SegmentHeaderLen || l.pendingMin[0] != 0 || len(l.pins) != 0 {
		t.Fatalf("after reset: %+v, watermark %d, pins %v", st, l.pendingMin[0], l.pins)
	}
}

// TestNilLog: a nil *Log is a disabled log.
func TestNilLog(t *testing.T) {
	var l *Log
	if err := errors.Join(l.Commit([]Record{rec(0, "x")}), l.Checkpoint(0), l.Retire(), l.Reset(), l.Close()); err != nil {
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
// order, with the same watermarks that commit recovered.
func TestParentDirectoryReplays(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"wal-0000000000000001.log", "wal-0000000000000002.log"} {
		raw, err := os.ReadFile(filepath.Join("testdata", "parent-5b6b9ab", name))
		if err != nil {
			t.Fatal(err)
		}
		os.WriteFile(filepath.Join(dir, name), raw, 0o644) // Open truncates the torn tail
	}
	l, r := open(t, Options{Dir: dir, Shards: 2, SegmentBytes: 96})
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
	if !reflect.DeepEqual(r.checkpoints, []int{0}) {
		t.Fatalf("checkpoints = %v, want [0]", r.checkpoints)
	}
	if !reflect.DeepEqual(l.pendingMin, []uint64{2, 1}) {
		t.Fatalf("watermarks = %v, want [2 1] (shard 0 re-claimed after its checkpoint)", l.pendingMin)
	}
	st := l.Stats()
	if st.Segments != 2 || st.Bytes != 119+106 || st.TornTruncations != 1 ||
		len(st.Warnings) != 1 || st.Warnings[0] != "wal segment 2: torn tail, 3 bytes truncated" {
		t.Fatalf("stats = %+v", st)
	}
	// A checkpoint written under another shard count is ignored.
	r3 := &replayed{}
	l3, err := Open(Options{Dir: dir, Shards: 3}, r3.record, r3.checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if len(r3.checkpoints) != 0 || !reflect.DeepEqual(l3.pendingMin, []uint64{1, 1, 0}) {
		t.Fatalf("3-shard reopen: checkpoints %v, watermarks %v", r3.checkpoints, l3.pendingMin)
	}
}
