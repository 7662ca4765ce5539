package lsm

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"m4lsm/internal/faultfs"
	"m4lsm/internal/govern"
	"m4lsm/internal/pyramid"
	"m4lsm/internal/series"
	"m4lsm/internal/tsfile"
	"m4lsm/internal/wal"
)

// --- segmented WAL ------------------------------------------------------

// TestWALSegmentRotation: a tiny segment size forces rotation; all data
// must survive a kill and reopen across many segments.
func TestWALSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir, WALSegmentBytes: 64, FlushThreshold: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var want series.Series
	for i := int64(0); i < 50; i++ {
		p := series.Point{T: i, V: float64(i)}
		want = append(want, p)
		if err := e.Write("s", p); err != nil {
			t.Fatal(err)
		}
	}
	if segs := e.Info().WALSegments; segs < 3 {
		t.Fatalf("WALSegments = %d, want several under 64-byte rotation", segs)
	}
	e.Kill()

	e2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	full := series.TimeRange{Start: 0, End: 100}
	snap, err := e2.Snapshot("s", full)
	if err != nil {
		t.Fatal(err)
	}
	if got := materialize(t, snap, full); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %d points, want %d", len(got), len(want))
	}
}

// TestColdShardWALRetirement is the regression the segmented WAL exists
// for: one cold shard with a single unflushed point must not pin the whole
// log. The hot shard fills and seals segments; once it flushes, those
// segments retire even though the cold shard has never flushed — and the
// cold point still survives a kill.
func TestColdShardWALRetirement(t *testing.T) {
	// Pick series routed to different shards of a 2-shard engine.
	hot, cold := "", ""
	for i := 0; hot == "" || cold == ""; i++ {
		id := fmt.Sprintf("s%d", i)
		if shardIndex(id, 2) == 0 {
			if hot == "" {
				hot = id
			}
		} else if cold == "" {
			cold = id
		}
	}

	dir := t.TempDir()
	e, err := Open(Options{Dir: dir, NumShards: 2, WALSegmentBytes: 64, FlushThreshold: 45})
	if err != nil {
		t.Fatal(err)
	}
	// The hot shard fills and seals many segments first; the cold point then
	// lands in the CURRENT active segment, so its pendingMin only pins that
	// one — everything sealed before it can retire once the hot shard
	// flushes.
	for i := int64(0); i < 44; i++ {
		if err := e.Write(hot, series.Point{T: i, V: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Write(cold, series.Point{T: 1, V: 42}); err != nil {
		t.Fatal(err)
	}
	before := e.Info()
	if before.WALSegments < 3 {
		t.Fatalf("WALSegments = %d before flush, want several", before.WALSegments)
	}
	if before.WALRetiredSegments != 0 {
		t.Fatalf("retired %d segments before any flush", before.WALRetiredSegments)
	}

	// The 45th hot point trips the auto-flush of the hot shard only; its
	// checkpoint clears the hot pendingMin and retirement drops every sealed
	// segment below the cold point's — while the cold shard never flushed.
	if err := e.Write(hot, series.Point{T: 44, V: 44}); err != nil {
		t.Fatal(err)
	}
	after := e.Info()
	if after.WALRetiredSegments == 0 {
		t.Fatal("no segments retired after hot-shard flush with a cold shard present")
	}
	if after.WALRetiredBytes == 0 {
		t.Fatal("retired segments reported zero bytes")
	}
	if after.WALBytes >= before.WALBytes {
		t.Fatalf("wal bytes %d did not drop from %d", after.WALBytes, before.WALBytes)
	}
	e.Kill()

	e2, err := Open(Options{Dir: dir, NumShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	full := series.TimeRange{Start: 0, End: 100}
	snap, err := e2.Snapshot(cold, full)
	if err != nil {
		t.Fatal(err)
	}
	got := materialize(t, snap, full)
	if len(got) != 1 || got[0] != (series.Point{T: 1, V: 42}) {
		t.Fatalf("cold point recovered as %v", got)
	}
}

// TestCorruptSealedSegmentQuarantined: flipping a byte inside a sealed
// segment must quarantine that segment on reopen (set aside as *.bad, a
// warning raised) while every other segment still replays.
func TestCorruptSealedSegmentQuarantined(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir, WALSegmentBytes: 64, FlushThreshold: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 30; i++ {
		if err := e.Write("s", series.Point{T: i, V: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if e.Info().WALSegments < 3 {
		t.Fatal("need several segments")
	}
	e.Kill()

	// Corrupt a record byte in sealed segment 2 (header stays valid).
	raw, err := os.ReadFile(wal.SegmentPath(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	raw[tsfile.SegmentHeaderLen+2] ^= 0xff
	if err := os.WriteFile(wal.SegmentPath(dir, 2), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen with corrupt sealed segment: %v", err)
	}
	defer e2.Close()
	info := e2.Info()
	if info.WALQuarantinedSegments != 1 {
		t.Fatalf("WALQuarantinedSegments = %d, want 1", info.WALQuarantinedSegments)
	}
	if len(info.WALWarnings) == 0 || !strings.Contains(info.WALWarnings[0], "corrupt") {
		t.Fatalf("WALWarnings = %q", info.WALWarnings)
	}
	if m, _ := filepath.Glob(filepath.Join(dir, "wal-*.log.bad*")); len(m) != 1 {
		t.Fatalf("quarantined segment files: %v", m)
	}
	// Segments 1 and 3+ still replayed: the engine has data on both sides
	// of the hole.
	full := series.TimeRange{Start: 0, End: 100}
	snap, err := e2.Snapshot("s", full)
	if err != nil {
		t.Fatal(err)
	}
	got := materialize(t, snap, full)
	if len(got) == 0 || len(got) >= 30 {
		t.Fatalf("recovered %d points, want a proper subset (hole from the bad segment)", len(got))
	}
}

// --- backup / restore ---------------------------------------------------

// TestBackupRestoreRoundTrip: back up a live database, keep mutating it,
// then restore elsewhere — the restored engine shows exactly the state at
// the backup instant, later writes excluded.
func TestBackupRestoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir, FlushThreshold: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Write("s", pts(10, 1, 20, 2, 30, 3, 40, 4, 50, 5, 60, 6, 70, 7, 80, 8, 90, 9)...); err != nil {
		t.Fatal(err) // 9 points: one auto-flush plus one memtable point
	}
	if err := e.Delete("s", 25, 35); err != nil {
		t.Fatal(err)
	}
	wantRange := series.TimeRange{Start: 0, End: 1000}
	snapAt, err := e.Snapshot("s", wantRange)
	if err != nil {
		t.Fatal(err)
	}
	want := materialize(t, snapAt, wantRange)

	bdir := filepath.Join(t.TempDir(), "bk")
	man, err := e.Backup(bdir)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Files) == 0 || man.NumShards != 1 {
		t.Fatalf("manifest = %+v", man)
	}
	// Mutations after the backup must not leak into it.
	if err := e.Write("s", pts(200, 20)...); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyBackup(bdir); err != nil {
		t.Fatalf("verify: %v", err)
	}

	rdir := filepath.Join(t.TempDir(), "restored")
	if err := Restore(bdir, rdir); err != nil {
		t.Fatal(err)
	}
	r, err := Open(Options{Dir: rdir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	snap, err := r.Snapshot("s", wantRange)
	if err != nil {
		t.Fatal(err)
	}
	if got := materialize(t, snap, wantRange); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored %v,\nwant %v", got, want)
	}
}

// TestBackupUnderConcurrentWriters: backups taken while writers hammer the
// engine must verify and restore to a consistent instant — for each
// series, a strict prefix of the monotone writes, never a torn record or
// an interleaving that skips a point.
func TestBackupUnderConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir, NumShards: 4, FlushThreshold: 32, WALSegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const writers = 4
	const perWriter = 300
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			id := fmt.Sprintf("w%d", w)
			for i := int64(0); i < perWriter; i++ {
				if err := e.Write(id, series.Point{T: i, V: float64(i)}); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	close(start)
	bdir := filepath.Join(t.TempDir(), "bk")
	if _, err := e.Backup(bdir); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if _, err := VerifyBackup(bdir); err != nil {
		t.Fatalf("verify under concurrent writers: %v", err)
	}

	rdir := filepath.Join(t.TempDir(), "restored")
	if err := Restore(bdir, rdir); err != nil {
		t.Fatal(err)
	}
	r, err := Open(Options{Dir: rdir, NumShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	full := series.TimeRange{Start: 0, End: perWriter + 1}
	for w := 0; w < writers; w++ {
		id := fmt.Sprintf("w%d", w)
		snap, err := r.Snapshot(id, full)
		if err != nil {
			t.Fatal(err)
		}
		got := materialize(t, snap, full)
		// Each writer appends t = 0,1,2,...: the pinned snapshot must hold
		// exactly a prefix.
		for i, p := range got {
			if p.T != int64(i) || p.V != float64(i) {
				t.Fatalf("series %s: point %d is %v — not a clean prefix", id, i, p)
			}
		}
		if len(got) > perWriter {
			t.Fatalf("series %s: %d points, more than ever written", id, len(got))
		}
	}
}

// TestBackupDetectsTamper: any byte flipped in a backed-up file, or a
// missing manifest, must fail verification and block restore.
func TestBackupDetectsTamper(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Write("s", pts(1, 1, 2, 2)...); err != nil {
		t.Fatal(err)
	}
	bdir := filepath.Join(t.TempDir(), "bk")
	man, err := e.Backup(bdir)
	if err != nil {
		t.Fatal(err)
	}
	e.Close()

	// Flip one byte in the first non-empty listed file (the mods sidecar
	// exists but is empty here).
	victim := ""
	for _, f := range man.Files {
		if f.Size > 0 {
			victim = filepath.Join(bdir, f.Name)
			break
		}
	}
	if victim == "" {
		t.Fatalf("no non-empty file in manifest %+v", man)
	}
	raw, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(victim, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyBackup(bdir); !errors.Is(err, tsfile.ErrCorrupt) {
		t.Fatalf("tampered backup verified: %v", err)
	}
	if err := Restore(bdir, filepath.Join(t.TempDir(), "r")); err == nil {
		t.Fatal("tampered backup restored")
	}
	// Undo the flip; now tamper with the manifest itself.
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(victim, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyBackup(bdir); err != nil {
		t.Fatalf("untampered backup rejected: %v", err)
	}
	mpath := filepath.Join(bdir, backupManifestName)
	mraw, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	mraw[len(mraw)-1] ^= 0x01
	if err := os.WriteFile(mpath, mraw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyBackup(bdir); !errors.Is(err, tsfile.ErrCorrupt) {
		t.Fatalf("tampered manifest verified: %v", err)
	}
}

// TestBackupManifestRoundTrip pins the manifest codec.
func TestBackupManifestRoundTrip(t *testing.T) {
	in := BackupManifest{
		CreatedUnix: 1700000000,
		NextVersion: 42,
		NumShards:   3,
		Files: []BackupFile{
			{Name: "000000.seq.tsf", Size: 123, CRC: 0xdeadbeef},
			{Name: "wal-0000000000000001.log", Size: 21, CRC: 1},
		},
	}
	enc, err := EncodeBackupManifest(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeBackupManifest(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
	// Entries that could escape the directory are rejected.
	for _, bad := range []string{"../evil", "a/b", ".hidden", ""} {
		in := in
		in.Files = []BackupFile{{Name: bad, Size: 1, CRC: 1}}
		enc, err := EncodeBackupManifest(in)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeBackupManifest(enc); !errors.Is(err, tsfile.ErrCorrupt) {
			t.Errorf("name %q accepted", bad)
		}
	}
}

// --- scrubber -----------------------------------------------------------

// TestScrubQuarantinesCorruptChunk: the scrubber must find a corrupt chunk
// BEFORE any query touches it, quarantine it through the same path as
// query-time detection, and (with Heal) compact it away.
func TestScrubQuarantinesCorruptChunk(t *testing.T) {
	dir := t.TempDir()
	buildFaultStore(t, dir)

	files, _ := filepath.Glob(filepath.Join(dir, "*.tsf"))
	if len(files) == 0 {
		t.Fatal("no chunk files")
	}
	r, err := tsfile.Open(files[0])
	if err != nil {
		t.Fatal(err)
	}
	meta := r.Metas()[0]
	r.Close()
	raw, _ := os.ReadFile(files[0])
	raw[meta.Offset+int64(meta.HeaderLen)+meta.TimesLen] ^= 0x40
	if err := os.WriteFile(files[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	e, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	rep, err := e.Scrub(ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ChunksQuarantined != 1 {
		t.Fatalf("ChunksQuarantined = %d, want 1 (report %+v)", rep.ChunksQuarantined, rep)
	}
	if rep.Partial || rep.ChunksChecked == 0 {
		t.Fatalf("report %+v", rep)
	}
	if n := e.Info().QuarantinedChunks; n != 1 {
		t.Fatalf("QuarantinedChunks = %d, want 1", n)
	}
	// The very first snapshot already excludes it — the query never sees
	// the corrupt bytes.
	full := series.TimeRange{Start: 0, End: 1 << 20}
	snap, err := e.Snapshot("s", full)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Warnings.Len() == 0 {
		t.Fatal("snapshot after scrub carries no exclusion warning")
	}

	// Heal: compaction folds the survivors and clears the quarantine.
	rep2, err := e.Scrub(ScrubOptions{Heal: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.ChunksQuarantined != 0 {
		// The chunk was already quarantined; a second pass skips it.
		t.Fatalf("second pass re-quarantined: %+v", rep2)
	}
	if n := e.Info().QuarantinedChunks; n != 1 {
		t.Fatalf("heal without new quarantines ran anyway: %d", n)
	}
	// Force the heal through a pass that quarantines: restore a fresh
	// corrupt store and scrub with Heal in one go.
	dir2 := t.TempDir()
	buildFaultStore(t, dir2)
	files2, _ := filepath.Glob(filepath.Join(dir2, "*.tsf"))
	r2, err := tsfile.Open(files2[0])
	if err != nil {
		t.Fatal(err)
	}
	meta2 := r2.Metas()[0]
	r2.Close()
	raw2, _ := os.ReadFile(files2[0])
	raw2[meta2.Offset+int64(meta2.HeaderLen)+meta2.TimesLen] ^= 0x40
	if err := os.WriteFile(files2[0], raw2, 0o644); err != nil {
		t.Fatal(err)
	}
	e2, err := Open(Options{Dir: dir2})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	rep3, err := e2.Scrub(ScrubOptions{Heal: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep3.ChunksQuarantined != 1 || !rep3.Healed {
		t.Fatalf("heal pass: %+v", rep3)
	}
	if n := e2.Info().QuarantinedChunks; n != 0 {
		t.Fatalf("QuarantinedChunks = %d after heal, want 0", n)
	}
}

// TestScrubBudgetResumes: a budget-capped pass stops early and the next
// pass picks up at the cursor, eventually covering everything.
func TestScrubBudgetResumes(t *testing.T) {
	dir := t.TempDir()
	buildFaultStore(t, dir) // 60 points in 10-point chunks: 6 chunks
	e, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	total := e.Info().Chunks
	checked := 0
	passes := 0
	for {
		rep, err := e.Scrub(ScrubOptions{Limits: govern.Limits{MaxChunks: 2}})
		if err != nil {
			t.Fatal(err)
		}
		checked += rep.ChunksChecked
		passes++
		if !rep.Partial {
			break
		}
		if passes > total {
			t.Fatalf("scrub never completed after %d passes", passes)
		}
	}
	if checked != total {
		t.Fatalf("checked %d chunks across passes, want %d", checked, total)
	}
	if passes < 2 {
		t.Fatalf("budget of 2 chunks finished %d-chunk store in one pass", total)
	}
}

// TestScrubCorruptSealedWALSegment: bit rot in a sealed, still-live WAL
// segment must be found by the scrubber, re-secured by a flush, and the
// segment set aside — with the engine still serving every point.
func TestScrubCorruptSealedWALSegment(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir, WALSegmentBytes: 64, FlushThreshold: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var want series.Series
	for i := int64(0); i < 30; i++ {
		p := series.Point{T: i, V: float64(i)}
		want = append(want, p)
		if err := e.Write("s", p); err != nil {
			t.Fatal(err)
		}
	}
	if e.Info().WALSegments < 3 {
		t.Fatal("need several live segments")
	}
	// Rot a record inside sealed segment 1 while the engine runs.
	raw, err := os.ReadFile(wal.SegmentPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	raw[tsfile.SegmentHeaderLen+2] ^= 0xff
	if err := os.WriteFile(wal.SegmentPath(dir, 1), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := e.Scrub(ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WALSegmentsChecked == 0 {
		t.Fatalf("no WAL segments checked: %+v", rep)
	}
	// The scrub flushes before touching the bad segment; with every shard
	// checkpointed, retirement usually unlinks it first and the quarantine
	// rename finds it already gone. Either way the rotten file must not
	// remain live under its original name.
	if _, err := os.Stat(wal.SegmentPath(dir, 1)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("corrupt segment still live: stat err = %v", err)
	}
	if len(rep.Errors) != 0 {
		t.Fatalf("scrub errors: %v", rep.Errors)
	}
	// The pre-quarantine flush re-secured everything: all 30 points
	// survive a kill and reopen even though a WAL segment is gone.
	e.Kill()
	e2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	full := series.TimeRange{Start: 0, End: 100}
	snap, err := e2.Snapshot("s", full)
	if err != nil {
		t.Fatal(err)
	}
	if got := materialize(t, snap, full); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %d points, want %d", len(got), len(want))
	}
}

// TestScrubHealsPyramidManifest: a rotted on-disk pyramid manifest is
// detected and rewritten from the in-memory state.
func TestScrubHealsPyramidManifest(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Write("s", pts(1, 1, 2, 2, 3, 3)...); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	mpath := filepath.Join(dir, pyramidFileName)
	raw, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(mpath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := e.Scrub(ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PyramidOK {
		t.Fatalf("corrupt manifest not detected: %+v", rep)
	}
	// Healed in place: the rewritten manifest decodes.
	healed, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pyramid.Decode(healed); err != nil {
		t.Fatalf("manifest not healed: %v", err)
	}
	rep2, err := e.Scrub(ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.PyramidOK {
		t.Fatalf("second pass still unhappy: %+v", rep2)
	}
}

// TestScrubQuarantineCrash: a crash at the scrub.quarantine step must
// leave the store recoverable with the corruption still detectable later.
func TestScrubQuarantineCrash(t *testing.T) {
	dir := t.TempDir()
	buildFaultStore(t, dir)
	files, _ := filepath.Glob(filepath.Join(dir, "*.tsf"))
	r, err := tsfile.Open(files[0])
	if err != nil {
		t.Fatal(err)
	}
	meta := r.Metas()[0]
	r.Close()
	raw, _ := os.ReadFile(files[0])
	raw[meta.Offset+int64(meta.HeaderLen)+meta.TimesLen] ^= 0x40
	if err := os.WriteFile(files[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Arm a crash on exactly the scrub.quarantine step.
	crashed := false
	hook := func(site string) error {
		if site == "scrub.quarantine" {
			crashed = true
			return faultfs.ErrCrash
		}
		return nil
	}
	e, err := Open(Options{Dir: dir, StepHook: hook})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Scrub(ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !crashed {
		t.Fatal("scrub.quarantine step never fired")
	}
	if !rep.Partial || rep.ChunksQuarantined != 0 {
		t.Fatalf("crashed pass: %+v", rep)
	}
	e.Kill()

	// Reopen without the hook: the scrub finds and quarantines it cleanly.
	e2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	rep2, err := e2.Scrub(ScrubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.ChunksQuarantined != 1 {
		t.Fatalf("post-crash scrub: %+v", rep2)
	}
}
