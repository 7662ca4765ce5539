package lsm

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"m4lsm/internal/faultfs"
	"m4lsm/internal/govern"
	"m4lsm/internal/pyramid"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
	"m4lsm/internal/tsfile"
	"m4lsm/internal/wal"
)

// --- WAL ----------------------------------------------------------------

// TestFlushCheckpointsDeletes: a flush checkpoints the WAL even when the
// memtables are empty, so a log holding only deletes does not outlive
// Flush and Close, and the next Open replays none of them.
func TestFlushCheckpointsDeletes(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var keep series.Series
	for i := int64(0); i < 200; i++ {
		if err := e.Write("s", series.Point{T: i, V: float64(i)}); err != nil {
			t.Fatal(err)
		}
		if i >= 100 {
			keep = append(keep, series.Point{T: i, V: float64(i)})
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		if err := e.Delete("s", i, i); err != nil {
			t.Fatal(err)
		}
	}
	if info := e.Info(); info.WALBytes == 0 {
		t.Fatalf("setup: WAL of %d bytes holds no delete", info.WALBytes)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if info := e.Info(); info.WALBytes != 0 {
		t.Fatalf("after Flush: WAL of %d bytes, want none", info.WALBytes)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, "wal.log")); err != nil || fi.Size() != 0 {
		t.Fatalf("after Close: %v, want an empty WAL file left to replay", fi)
	}
	e, err = Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if info := e.Info(); info.Deletes != 100 || info.MemtablePoints != 0 || info.WALBytes != 0 {
		t.Fatalf("reopened: %d deletes, %d memtable points, %d WAL bytes", info.Deletes, info.MemtablePoints, info.WALBytes)
	}
	full := series.TimeRange{Start: 0, End: 1000}
	snap, err := e.Snapshot("s", full)
	if err != nil {
		t.Fatal(err)
	}
	if got := materialize(t, snap, full); !reflect.DeepEqual(got, keep) {
		t.Fatalf("reopened: %d points, want the %d no delete covers", len(got), len(keep))
	}
}

// walRecords replays a WAL file image through wal.Open, as recovery
// would, and returns the caller records it holds.
func walRecords(t *testing.T, raw []byte) [][]byte {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var recs [][]byte
	l, err := wal.Open(wal.Options{Dir: dir}, func(p []byte) error {
		recs = append(recs, bytes.Clone(p))
		return nil
	}, func() { recs = nil })
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	return recs
}

// stripedWorkload is the fixed workload behind testdata/parent-cb3bb04-
// shards1 and -shards3: commit cb3bb04 ran it with FlushThreshold 8, WAL
// segments rotated at 128 bytes and NumShards 1 and 3, then killed the
// engine. Under three stripes root.s1 routed to stripe 0, root.s3 to 1, and
// root.s5 and root.d to 2, so the killed directory holds chunk files,
// deletes.mods, the pyramid manifest, stripe 0's checkpoint ("0 of 3")
// after its auto-flush, and stripes 1 and 2's unflushed records on both
// sides of it.
func stripedWorkload() []tortureOp {
	return []tortureOp{
		{kind: 'w', id: "root.s1", pts: pts(10, 1, 20, 2, 30, 3, 40, 4, 50, 5, 60, 6)},
		{kind: 'w', id: "root.s3", pts: pts(15, 11, 25, 12, 35, 13, 45, 14, 55, 15)},
		{kind: 'w', id: "root.s5", pts: pts(7, 21, 17, 22, 27, 23, 37, 24, 47, 25)},
		{kind: 'w', id: "root.d", pts: pts(0, 30, 16, 31, 32, 32, 48, 33, 64, 34, 80, 35, 96, 36, 112, 37, 128, 38, 144, 39)},
		{kind: 'd', id: "root.s3", start: 20, end: 40},
		{kind: 'f'},
		{kind: 'w', id: "root.s3", pts: pts(65, 16, 75, 17)},
		{kind: 'w', id: "root.s5", pts: pts(57, 26, 3, 27)},
		{kind: 'w', id: "root.s1", pts: pts(70, 7, 80, 8, 90, 9, 100, 10, 110, 11, 120, 12, 130, 13, 140, 14)},
		{kind: 'w', id: "root.s1", pts: pts(25, 15, 150, 16)},
		{kind: 'w', id: "root.s3", pts: pts(85, 18, 50, 19)},
		{kind: 'd', id: "root.s5", start: 0, end: 10},
		{kind: 'g', entries: []BatchEntry{
			{SeriesID: "root.s3", Points: pts(95, 20)},
			{SeriesID: "root.s5", Points: pts(67, 28, 77, 29)},
		}},
	}
}

// parentFlushes are the chunk files stripedWorkload's two flushes write,
// each beside the files commit cb3bb04 wrote for the same flush: the
// parent put a flush's late chunks in an unsequence file and its in-order
// chunks in a sequence file, in that order; a flush now writes both runs,
// in the same order, to one file.
var parentFlushes = []struct {
	file   string
	parent []string
}{
	{"000000.tsf", []string{"000000.seq.tsf"}},
	{"000001.tsf", []string{"000001.unseq.tsf", "000002.seq.tsf"}},
}

// chunkRegion returns a chunk file's chunks: the bytes from the end of its
// 5-byte magic to the start of its footer, whose length is the uint64
// before the 4-byte tail magic.
func chunkRegion(t *testing.T, raw []byte) []byte {
	t.Helper()
	const magicLen, tailLen = 5, 4 + 8 + 4
	if len(raw) < magicLen+tailLen {
		t.Fatalf("%d-byte chunk file", len(raw))
	}
	end := len(raw) - tailLen - int(binary.LittleEndian.Uint64(raw[len(raw)-12:]))
	if end < magicLen {
		t.Fatalf("footer length points outside a %d-byte file", len(raw))
	}
	return raw[magicLen:end]
}

// fileMetas returns the metadata of a chunk file's chunks, offsets zeroed.
func fileMetas(t *testing.T, path string) []storage.ChunkMeta {
	t.Helper()
	r, err := tsfile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	metas := slices.Clone(r.Metas())
	for i := range metas {
		metas[i].Offset = 0
	}
	return metas
}

// TestStripedWorkloadWritesParentBytes pins the on-disk formats. Run at
// one stripe, stripedWorkload leaves the chunks and deletes.mods that
// commit cb3bb04 left at one stripe, byte for byte: each flush's file
// holds the parent's chunk regions of that flush concatenated (see
// parentFlushes), with the same metadata but for offsets. The pyramid
// manifest's format has changed since: it must decode, with every series'
// cells consistent. The WAL's format has changed too — one wal.log, framed
// like deletes.mods, where the parent rotated wal-<seq>.log segments — so
// its golden is its own: stripedWorkload up to its first flush, killed,
// leaves testdata/stripedworkload-wal.log byte for byte. The empty LOCK
// file, the directory's lock, is new beside them.
func TestStripedWorkloadWritesParentBytes(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir, FlushThreshold: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range stripedWorkload() {
		if err := execOp(e, op); err != nil {
			t.Fatal(err)
		}
	}
	e.Kill()
	golden := filepath.Join("testdata", "parent-cb3bb04-shards1")
	want, err := os.ReadDir(golden)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"LOCK", "wal.log"}
	for _, ent := range want {
		if !strings.HasPrefix(ent.Name(), "wal-") && !strings.HasSuffix(ent.Name(), ".tsf") {
			names = append(names, ent.Name())
		}
	}
	for _, f := range parentFlushes {
		names = append(names, f.file)
	}
	slices.Sort(names)
	var gotNames []string
	for _, ent := range got {
		gotNames = append(gotNames, ent.Name())
	}
	if !slices.Equal(gotNames, names) {
		t.Fatalf("wrote %v, want %v", gotNames, names)
	}
	for _, f := range parentFlushes {
		raw, err := os.ReadFile(filepath.Join(dir, f.file))
		if err != nil {
			t.Fatal(err)
		}
		var region []byte
		var metas []storage.ChunkMeta
		for _, name := range f.parent {
			old, err := os.ReadFile(filepath.Join(golden, name))
			if err != nil {
				t.Fatal(err)
			}
			region = append(region, chunkRegion(t, old)...)
			metas = append(metas, fileMetas(t, filepath.Join(golden, name))...)
		}
		if !bytes.Equal(chunkRegion(t, raw), region) {
			t.Errorf("%s: chunks differ from the parent's %v", f.file, f.parent)
		}
		if got := fileMetas(t, filepath.Join(dir, f.file)); !reflect.DeepEqual(got, metas) {
			t.Errorf("%s: metadata\n got %v\nwant %v", f.file, got, metas)
		}
	}
	for _, name := range []string{"deletes.mods", pyramidFileName} {
		a, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(golden, name))
		if err != nil {
			t.Fatal(err)
		}
		if name == pyramidFileName {
			p, _, err := pyramid.Decode(a)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, id := range []string{"root.d", "root.s1", "root.s3", "root.s5"} {
				if err := p.CheckInvariants(id); err != nil {
					t.Error(err)
				}
			}
		} else if !bytes.Equal(a, b) {
			t.Errorf("%s differs from the parent's bytes", name)
		}
	}

	dir = t.TempDir()
	e, err = Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range stripedWorkload() {
		if op.kind == 'f' {
			break
		}
		if err := execOp(e, op); err != nil {
			t.Fatal(err)
		}
	}
	e.Kill()
	gotWAL, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	wantWAL, err := os.ReadFile(filepath.Join("testdata", "stripedworkload-wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotWAL, wantWAL) {
		t.Fatalf("wal.log\n got %x\nwant %x", gotWAL, wantWAL)
	}
}

// copyTestdata copies testdata/name into a fresh directory, which a test
// may then open and mutate.
func copyTestdata(t *testing.T, name string) string {
	t.Helper()
	dir := t.TempDir()
	src := filepath.Join("testdata", name)
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		raw, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, ent.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// checkOracle requires every series of stripedWorkload to read as want.
func checkOracle(t *testing.T, phase string, e *Engine, want oracle) {
	t.Helper()
	full := series.TimeRange{Start: -1 << 40, End: 1 << 40}
	for _, id := range []string{"root.d", "root.s1", "root.s3", "root.s5"} {
		snap, err := e.Snapshot(id, full)
		if err != nil {
			t.Fatal(err)
		}
		if got := materialize(t, snap, full); !seriesEqual(got, want.series(id)) {
			t.Fatalf("%s: %s = %v, want %v", phase, id, got, want.series(id))
		}
	}
}

// readDir returns every file of dir by name, with its bytes.
func readDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, ent := range ents {
		b, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[ent.Name()] = string(b)
	}
	return files
}

// TestSecondOpenIsLocked: one engine per directory. While engine A has a
// directory open, a second Open of it fails at once with ErrLocked naming
// the directory, and every file stays byte-identical. Without the lock,
// B's backup and close flushed A's WAL point and emptied wal.log under A;
// A's next acknowledged record landed past 18 zero bytes, and after a kill
// the directory failed to open ("wal record 0: empty record").
func TestSecondOpenIsLocked(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(Options{Dir: dir, SyncWAL: true, FlushThreshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := series.Series(pts(1, 1, 2, 2, 3, 3, 4, 4, 5, 5))
	if err := a.Write("s", want[:4]...); err != nil { // a flush
		t.Fatal(err)
	}
	if err := a.Write("s", want[4]); err != nil { // in the WAL only
		t.Fatal(err)
	}
	before := readDir(t, dir)
	if b, err := Open(Options{Dir: dir}); err == nil {
		if _, err := b.Backup(t.TempDir()); err != nil {
			t.Error(err)
		}
		b.Close()
		t.Error("a second Open of a directory in use succeeded")
	} else if !errors.Is(err, ErrLocked) || !strings.Contains(err.Error(), dir) {
		t.Errorf("second Open: %v, want ErrLocked naming %s", err, dir)
	}
	if after := readDir(t, dir); !reflect.DeepEqual(after, before) {
		t.Errorf("the second Open changed the directory: %d files before, %d after", len(before), len(after))
	}
	last := series.Point{T: 6, V: 6}
	if err := a.Write("s", last); err != nil {
		t.Fatal(err)
	}
	want = append(want, last)
	a.Kill() // releases the lock, as Close does
	c, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen after the kill: %v", err)
	}
	defer c.Close()
	r := series.TimeRange{Start: 0, End: 100}
	snap, err := c.Snapshot("s", r)
	if err != nil {
		t.Fatal(err)
	}
	if got := materialize(t, snap, r); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened %v, want every acknowledged point %v", got, want)
	}
}

// TestParentStripedDirectoryRefused is the upgrade pin: a directory an
// older build wrote and killed under one or three lock stripes holds its
// acknowledged writes in wal-<seq>.log segments, a format this build does
// not replay. Open refuses it with an error naming the first segment and
// leaves every file byte-identical: no chunk file set aside, no sidecar
// cut, no wal.log begun beside the segments.
func TestParentStripedDirectoryRefused(t *testing.T) {
	for _, c := range []struct{ name, first string }{
		{"parent-cb3bb04-shards1", "wal-0000000000000002.log"},
		{"parent-cb3bb04-shards3", "wal-0000000000000003.log"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := copyTestdata(t, c.name)
			e, err := Open(Options{Dir: dir})
			if err == nil {
				e.Close()
				t.Fatal("Open replayed an older build's WAL segments")
			}
			if !strings.Contains(err.Error(), c.first) {
				t.Fatalf("error %q does not name %s", err, c.first)
			}
			want, err := os.ReadDir(filepath.Join("testdata", c.name))
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%d files after the refusal, want the %d copied", len(got), len(want))
			}
			for i, ent := range want {
				a, _ := os.ReadFile(filepath.Join(dir, got[i].Name()))
				b, _ := os.ReadFile(filepath.Join("testdata", c.name, ent.Name()))
				if got[i].Name() != ent.Name() || !bytes.Equal(a, b) {
					t.Fatalf("file %d: %s (%d bytes), want %s byte-identical", i, got[i].Name(), len(a), ent.Name())
				}
			}
		})
	}
}

// TestParentChunkFilesOpen: the chunk files and deletes.mods an older
// build left, a flush's late chunks in NNNNNN.unseq.tsf and its in-order
// ones in NNNNNN.seq.tsf, open with every chunk and delete (the parent's
// WAL segments, which this build refuses, left out). The next flush writes
// one file, numbered after the parent's last.
func TestParentChunkFilesOpen(t *testing.T) {
	golden := filepath.Join("testdata", "parent-cb3bb04-shards1")
	dir := copyTestdata(t, "parent-cb3bb04-shards1")
	var chunks int
	for _, name := range []string{"000000.seq.tsf", "000001.unseq.tsf", "000002.seq.tsf"} {
		chunks += len(fileMetas(t, filepath.Join(golden, name)))
	}
	dels, _, err := tsfile.ReadModLog(filepath.Join(golden, "deletes.mods"))
	if err != nil {
		t.Fatal(err)
	}
	wals, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	for _, name := range append(wals, filepath.Join(dir, pyramidFileName)) {
		if err := os.Remove(name); err != nil {
			t.Fatal(err)
		}
	}
	e, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if info := e.Info(); info.Files != 3 || info.Chunks != chunks || info.Deletes != len(dels) || info.BadFiles != 0 {
		t.Fatalf("opened %d files, %d chunks, %d deletes, %d bad; want 3, %d, %d, 0",
			info.Files, info.Chunks, info.Deletes, info.BadFiles, chunks, len(dels))
	}
	if err := e.Write("root.s1", pts(10, 99, 1000, 1)...); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	metas := fileMetas(t, filepath.Join(dir, "000003.tsf"))
	if len(metas) != 2 || metas[0].Last.T != 10 || metas[1].First.T != 1000 {
		t.Fatalf("000003.tsf holds %v, want the late chunk at 10, then the in-order one at 1000", metas)
	}
}

// TestFormat1ChunkFileRefused: a whole chunk file of footer format 1,
// which no reader of this build understands, is not a torn flush. Open
// fails naming it and sets no file aside, not even the torn file beside
// it, so every file stays as it was. Setting it aside instead lost its
// points: the WAL that held them had been checkpointed.
func TestFormat1ChunkFileRefused(t *testing.T) {
	dir := t.TempDir()
	seq0, err := os.ReadFile(filepath.Join("testdata", "parent-cb3bb04-shards1", "000000.seq.tsf"))
	if err != nil {
		t.Fatal(err)
	}
	format1, err := os.ReadFile(filepath.Join("..", "tsfile", "testdata", "parent-c39d07c", "golden.tsf"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"000000.seq.tsf": string(seq0[:len(seq0)/2]), // a torn flush
		"000001.seq.tsf": string(format1),
	}
	for name, raw := range want {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(raw), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	e, err := Open(Options{Dir: dir})
	if err == nil {
		e.Close()
		t.Fatal("Open accepted a format-1 chunk file")
	}
	if !strings.Contains(err.Error(), "000001.seq.tsf") {
		t.Fatalf("error %q does not name 000001.seq.tsf", err)
	}
	got := readDir(t, dir)
	delete(got, "LOCK")
	if !reflect.DeepEqual(got, want) {
		var names []string
		for name := range got {
			names = append(names, name)
		}
		t.Fatalf("after the refusal the directory holds %v, want the two files as written", names)
	}
}

// TestDamagedModsSetAside: a flipped byte in deletes.mods must not lose
// acknowledged deletes silently. Open keeps the bytes from the damaged
// record on in deletes.mods.bad, says so in RecoveryWarnings, and counts
// a bad file, on this open and the next.
func TestDamagedModsSetAside(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Write("s", pts(10, 1, 20, 2, 30, 3)...); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, t0 := range []int64{10, 20} {
		if err := e.Delete("s", t0, t0); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "deletes.mods")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[2] ^= 0xff // inside the first record's payload
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{"open", "reopen"} {
		e, err = Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		info := e.Info()
		e.Close()
		if info.BadFiles != 1 {
			t.Fatalf("%s: BadFiles = %d, want the set-aside sidecar bytes", phase, info.BadFiles)
		}
		if phase == "open" {
			want := fmt.Sprintf("deletes.mods: %d bytes past the last whole record set aside as deletes.mods.bad", len(raw))
			if len(info.RecoveryWarnings) != 1 || info.RecoveryWarnings[0] != want {
				t.Fatalf("RecoveryWarnings = %q, want %q", info.RecoveryWarnings, want)
			}
		}
	}
	if kept, err := os.ReadFile(path + ".bad"); err != nil || !bytes.Equal(kept, raw) {
		t.Fatalf("deletes.mods.bad holds %x (%v), want the damaged sidecar %x", kept, err, raw)
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
	if len(man.Files) == 0 {
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
	e, err := Open(Options{Dir: dir, FlushThreshold: 32})
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
	r, err := Open(Options{Dir: rdir})
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

// parentBackupManifest was encoded by commit cb3bb04, which also recorded
// the engine's lock-stripe count ("numShards": 3) in the manifest.
const parentBackupManifest = "4d34424b01720000007b2263726561746564556e6978223a313730303030303030302c226e65787456657273696f6e223a392c226e756d536861726473223a332c2266696c6573223a5b7b226e616d65223a223030303030312e7365712e747366222c2273697a65223a3132382c22637263223a343636307d5d7d41e52b5b"

// TestBackupManifestRoundTrip pins the manifest codec.
func TestBackupManifestRoundTrip(t *testing.T) {
	in := BackupManifest{
		CreatedUnix: 1700000000,
		NextVersion: 42,
		Files: []BackupFile{
			{Name: "000000.seq.tsf", Size: 123, CRC: 0xdeadbeef},
			{Name: "wal.log", Size: 21, CRC: 1},
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
	// A manifest an older build wrote still decodes.
	parent, _ := hex.DecodeString(parentBackupManifest)
	old, err := DecodeBackupManifest(parent)
	if err != nil {
		t.Fatalf("parent manifest: %v", err)
	}
	if wantOld := (BackupManifest{CreatedUnix: 1700000000, NextVersion: 9,
		Files: []BackupFile{{Name: "000001.seq.tsf", Size: 128, CRC: 0x1234}}}); !reflect.DeepEqual(old, wantOld) {
		t.Fatalf("parent manifest = %+v, want %+v", old, wantOld)
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

// TestScrubCursorSurvivesCompaction: a budget-capped pass stops partway,
// a compaction then rewrites every chunk into a new file, and the next
// pass must check all of them: the cursor names a chunk of a file the
// compaction removed, so the cycle starts over rather than skipping chunks
// of the new file it never checked.
func TestScrubCursorSurvivesCompaction(t *testing.T) {
	e, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 16; i++ {
		if err := e.Write(fmt.Sprintf("s%02d", i), pts(1, 1, 2, 2, 3, 3)...); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := e.Info().Chunks; n != 16 {
		t.Fatalf("setup: %d chunks, want 16", n)
	}
	rep, err := e.Scrub(ScrubOptions{Limits: govern.Limits{MaxChunks: 10}})
	if err != nil || rep.ChunksChecked != 10 || !rep.Partial {
		t.Fatalf("capped pass: %+v (%v), want 10 chunks checked and Partial", rep, err)
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if n := e.Info().Chunks; n != 16 {
		t.Fatalf("after the compaction: %d chunks, want 16", n)
	}
	rep, err = e.Scrub(ScrubOptions{})
	if err != nil || rep.ChunksChecked != 16 || rep.Partial {
		t.Fatalf("pass after the compaction: %+v (%v), want all 16 chunks checked", rep, err)
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
