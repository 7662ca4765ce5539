package lsm

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"m4lsm/internal/m4"
	"m4lsm/internal/m4lsm"
	"m4lsm/internal/obs"
	"m4lsm/internal/pyramid"
	"m4lsm/internal/reprops"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
)

// pyrVerify answers a few query shapes over [0, tMax) through the pyramid-
// aware operator and through the pyramid-disabled operator, compares both
// against a reference scan of the materialized snapshot, checks structural
// invariants, and returns how many spans the pyramid answered.
func pyrVerify(t *testing.T, e *Engine, id string, tMax int64) int64 {
	t.Helper()
	if err := e.PyrCheckInvariants(id); err != nil {
		t.Fatalf("pyramid invariants: %v", err)
	}
	var pyramidSpans int64
	for _, q := range []m4.Query{
		{Tqs: 0, Tqe: tMax, W: 4},
		{Tqs: 0, Tqe: tMax, W: 11},
		{Tqs: tMax / 4, Tqe: tMax, W: 3},
	} {
		snap, err := e.Snapshot(id, q.Range())
		if err != nil {
			t.Fatal(err)
		}
		truth := materialize(t, snap, series.TimeRange{Start: 0, End: tMax})
		ref, err := m4.ComputeSeries(q, truth)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m4lsm.Compute(snap, q)
		if err != nil {
			t.Fatal(err)
		}
		pyramidSpans += snap.Stats.PyramidSpans
		snap2, err := e.Snapshot(id, q.Range())
		if err != nil {
			t.Fatal(err)
		}
		snap2.Pyramid = nil
		off, err := m4lsm.Compute(snap2, q)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if !m4.Equivalent(got[i], ref[i]) {
				t.Fatalf("query %+v span %d: pyramid-on %v != reference %v", q, i, got[i], ref[i])
			}
			if !m4.Equivalent(off[i], ref[i]) {
				t.Fatalf("query %+v span %d: pyramid-off %v != reference %v", q, i, off[i], ref[i])
			}
		}
	}
	return pyramidSpans
}

// A range delete whose closed [start, end] lands exactly on power-of-two
// cell boundaries must invalidate precisely the covered cells and leave
// every query correct: the boundary cells may not keep pre-delete data, and
// neighbours may not be dropped.
func TestPyramidCellBoundaryAlignedDelete(t *testing.T) {
	e := openTestEngine(t, Options{})
	const id = "root.sg.d0"
	var write []series.Point
	for tt := int64(0); tt < 256; tt++ {
		write = append(write, series.Point{T: tt, V: float64(tt % 97)})
	}
	if err := e.Write(id, write...); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := pyrVerify(t, e, id, 256); n == 0 {
		t.Fatal("pyramid unused before delete")
	}

	// [64, 127] closed is [64, 128) half-open: aligned at every level up
	// to log=6 (one full level-6 cell, two level-5 cells, ...).
	if err := e.Delete(id, 64, 127); err != nil {
		t.Fatal(err)
	}
	pyrVerify(t, e, id, 256) // cells over [64,128) stale -> must not serve
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := pyrVerify(t, e, id, 256); n == 0 {
		t.Fatal("pyramid unused after boundary-aligned delete rebuild")
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	pyrVerify(t, e, id, 256)
}

// Overwrites at a chunk's min and max timestamps touch exactly the cells at
// the chunk extent's edges; the rebuilt cells must serve the new values.
func TestPyramidOverwriteAtChunkEdges(t *testing.T) {
	e := openTestEngine(t, Options{})
	const id = "root.sg.d0"
	if err := e.Write(id, pts(10, 1, 20, 2, 30, 3, 40, 4, 50, 5)...); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	pyrVerify(t, e, id, 64)

	// Overwrite both edge timestamps of the flushed chunk (min=10, max=50).
	if err := e.Write(id, pts(10, 100, 50, 500)...); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := pyrVerify(t, e, id, 64); n == 0 {
		t.Fatal("pyramid unused after edge overwrite rebuild")
	}

	// The rebuilt cells must reflect the overwrite, not merely agree with
	// a scan: pin the values through a cells-only whole-range query.
	q := m4.Query{Tqs: 0, Tqe: 64, W: 1}
	snap, err := e.Snapshot(id, q.Range())
	if err != nil {
		t.Fatal(err)
	}
	aggs, err := m4lsm.Compute(snap, q)
	if err != nil {
		t.Fatal(err)
	}
	if aggs[0].First.V != 100 || aggs[0].Last.V != 500 {
		t.Fatalf("edge overwrite not in cells: first=%v last=%v", aggs[0].First, aggs[0].Last)
	}
}

// TestPyramidReopenReshard is the manifest-format upgrade pin. A directory
// holding an older build's pyramid.pyr reopens with that manifest refused as
// corrupt and every series stale: before the first flush nothing is planned
// from cells and every answer, from chunks, equals the oracle; after it the
// pyramid answers, still equal to the oracle. The directory is
// goldenManifestOps' data under the format-1 manifest commit 8f81d1d wrote
// for it.
func TestPyramidReopenReshard(t *testing.T) {
	golden := oracle{}
	for _, session := range goldenManifestOps() {
		for _, op := range session {
			golden.apply(op)
		}
	}
	goldenDir := func(t *testing.T) string {
		dir := t.TempDir()
		if err := goldenManifestWorkload(dir); err != nil {
			t.Fatal(err)
		}
		old, err := os.ReadFile(filepath.Join("testdata", "parent-8f81d1d", pyramidFileName))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, pyramidFileName), old, 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	for _, c := range []struct {
		name string
		dir  func(t *testing.T) string
		want oracle
	}{
		{"parent-8f81d1d", goldenDir, golden},
	} {
		t.Run(c.name, func(t *testing.T) {
			e, err := Open(Options{Dir: c.dir(t)})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			answered := func() int64 {
				var n int64
				for id := range c.want {
					n += oracleM4(t, e, id, c.want.series(id))
				}
				return n
			}
			if n := answered(); n != 0 {
				t.Fatalf("%d spans planned from a manifest of the old format", n)
			}
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			if n := answered(); n == 0 {
				t.Fatal("pyramid unused after the first flush")
			}
			if info := e.Info(); info.PyramidSeries != len(c.want) || info.PyramidStaleRanges != 0 {
				t.Fatalf("after the flush: %d pyramid series and %d stale ranges, want %d and none",
					info.PyramidSeries, info.PyramidStaleRanges, len(c.want))
			}
		})
	}
}

// oracleM4 answers a few query shapes over series id with the pyramid-
// aware operator, requires each equal to M4 over want, and returns how many
// spans the pyramid answered.
func oracleM4(t *testing.T, e *Engine, id string, want series.Series) int64 {
	t.Helper()
	if err := e.PyrCheckInvariants(id); err != nil {
		t.Fatalf("pyramid invariants: %v", err)
	}
	var spans int64
	for _, q := range []m4.Query{{Tqs: -1024, Tqe: 1024, W: 4}, {Tqs: -1024, Tqe: 1024, W: 16}, {Tqs: 0, Tqe: 256, W: 8}} {
		snap, err := e.Snapshot(id, q.Range())
		if err != nil {
			t.Fatal(err)
		}
		got, err := m4lsm.Compute(snap, q)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := m4.ComputeSeries(q, want)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if !m4.Equivalent(got[i], ref[i]) {
				t.Fatalf("%s query %+v span %d: %v, the oracle %v", id, q, i, got[i], ref[i])
			}
		}
		spans += snap.Stats.PyramidSpans
	}
	return spans
}

// A corrupt manifest must be discarded wholesale: the engine reopens with
// everything stale (correct fallback answers), and the next flush rebuilds
// a working pyramid.
func TestPyramidCorruptManifest(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const id = "root.sg.d0"
	if err := e.Write(id, pts(1, 1, 50, 5, 90, 9, 130, 3)...); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, pyramidFileName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff // flip a payload bit; the checksum must catch it
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	pyrVerify(t, e2, id, 256) // stale everywhere: fallback must stay correct
	if err := e2.Write(id, pts(60, 6)...); err != nil {
		t.Fatal(err)
	}
	if err := e2.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := pyrVerify(t, e2, id, 256); n == 0 {
		t.Fatal("pyramid unused after rebuild from corrupt manifest")
	}
}

// DisablePyramid must mean exactly that: no maintenance, no manifest file,
// no pyramid source on snapshots, and queries still correct.
func TestPyramidDisabled(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir, DisablePyramid: true})
	if err != nil {
		t.Fatal(err)
	}
	const id = "root.sg.d0"
	if err := e.Write(id, pts(1, 1, 50, 5, 90, 9)...); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	snap, err := e.Snapshot(id, series.TimeRange{Start: 0, End: 256})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Pyramid != nil {
		t.Fatal("snapshot has a pyramid source with DisablePyramid set")
	}
	if n := pyrVerify(t, e, id, 256); n != 0 {
		t.Fatalf("pyramid answered %d spans while disabled", n)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, pyramidFileName)); !os.IsNotExist(err) {
		t.Fatalf("manifest exists despite DisablePyramid (stat err = %v)", err)
	}
}

// REPRESENT minmax needs only BP/TP, which are exactly what a rollup cell
// stores: over a dense, cell-aligned window it must answer from pyramid
// cells alone (no chunk and no time-block load) and still equal the
// full-scan reduction of the raw data. LTTB on the same store is the
// contrast: it has no metadata path and loads every chunk.
func TestMinMaxAnswersFromPyramidAlone(t *testing.T) {
	const (
		id = "root.sg.dense"
		n  = 1 << 14
	)
	e, err := Open(Options{Dir: t.TempDir(), FlushThreshold: 1000, DisableWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rng := rand.New(rand.NewSource(7))
	raw := make(series.Series, n)
	v := 0.0
	for i := range raw {
		v += rng.Float64()*2 - 1
		raw[i] = series.Point{T: int64(i), V: v}
	}
	for off := 0; off < n; off += 4096 {
		if err := e.Write(id, raw[off:off+4096]...); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}

	q := m4.Query{Tqs: 0, Tqe: n, W: 64}
	minmax := reprops.Spec{Kind: reprops.KindMinMax}
	snap, err := e.Snapshot(id, q.Range())
	if err != nil {
		t.Fatal(err)
	}
	outs, err := m4lsm.ReduceMultiContext(context.Background(), []*storage.Snapshot{snap}, q, minmax, m4lsm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := outs[0]
	st := snap.Stats.Load()
	if st.ChunksLoaded != 0 || st.TimeBlocksLoaded != 0 || st.PyramidSpans != int64(q.W) {
		t.Errorf("minmax: %d chunk loads, %d time-block loads, %d of %d spans from the pyramid; want 0, 0, all",
			st.ChunksLoaded, st.TimeBlocksLoaded, st.PyramidSpans, q.W)
	}
	want, err := reprops.Reduce(minmax, q, raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("minmax kept %d points, the full-scan reduction %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("minmax point %d = %v, the full-scan reduction has %v", i, got[i], want[i])
		}
	}

	snap, err = e.Snapshot(id, q.Range())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m4lsm.ReduceMultiContext(context.Background(), []*storage.Snapshot{snap}, q, reprops.Spec{Kind: reprops.KindLTTB}, m4lsm.Options{}); err != nil {
		t.Fatal(err)
	}
	if st := snap.Stats.Load(); len(snap.Chunks) == 0 || st.ChunksLoaded != int64(len(snap.Chunks)) {
		t.Errorf("lttb loaded %d of %d chunks; want every one", st.ChunksLoaded, len(snap.Chunks))
	}
}

// TestFlushRebuildsAfterDelete: an explicit Flush rebuilds the cells a
// delete staled even when no memtable holds a point, so an aligned window
// over an idle series answers from the pyramid again right away instead of
// falling back to chunk reads until the next write flushes.
func TestFlushRebuildsAfterDelete(t *testing.T) {
	e := openTestEngine(t, Options{})
	const id = "root.sg.idle"
	rng := rand.New(rand.NewSource(5))
	data := make(series.Series, 1<<14)
	for i := range data {
		data[i] = series.Point{T: int64(i), V: rng.Float64()}
	}
	for off := 0; off < len(data); off += 4096 {
		if err := e.Write(id, data[off:off+4096]...); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete(id, 1000, 2000); err != nil {
		t.Fatal(err)
	}
	rebuilds := e.pyr.Stats().Rebuilds
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := e.pyr.Stats(); st.StaleRanges != 0 || st.Rebuilds <= rebuilds {
		t.Fatalf("after Delete + Flush: %+v, want no stale range and a rebuild beyond %d", st, rebuilds)
	}

	q := m4.Query{Tqs: 0, Tqe: 4096, W: 64}
	snap, err := e.Snapshot(id, q.Range())
	if err != nil {
		t.Fatal(err)
	}
	got, err := m4lsm.Compute(snap, q)
	if err != nil {
		t.Fatal(err)
	}
	if st := snap.Stats.Load(); st.ChunksLoaded != 0 || st.TimeBlocksLoaded != 0 || st.PyramidSpans != int64(q.W) {
		t.Errorf("aligned window over the deleted range: %d chunk loads, %d time-block loads, %d of %d spans from the pyramid; want 0, 0, all",
			st.ChunksLoaded, st.TimeBlocksLoaded, st.PyramidSpans, q.W)
	}
	off, err := e.Snapshot(id, q.Range())
	if err != nil {
		t.Fatal(err)
	}
	off.Pyramid = nil
	want, err := m4lsm.Compute(off, q)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !m4.Equivalent(got[i], want[i]) {
			t.Fatalf("span %d: pyramid-on %v, pyramid-off %v", i, got[i], want[i])
		}
	}
}

// TestAutoFlushSavesAmortized pins when automatic flushes write the
// manifest: once, and only once, the points flushed since the last save
// reach the distinct points the manifest that save wrote holds, so many
// flush rounds cost a few saves. A kill after unsaved flushes loses nothing and answers
// nothing wrong: reopen re-marks what the old manifest does not vouch for,
// and the next flush rebuilds it.
func TestAutoFlushSavesAmortized(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	flushedPts := reg.Counter("lsm_flushed_points_total")
	rounds := reg.Counter("lsm_flushes_total")
	manifest := filepath.Join(dir, pyramidFileName)
	saves, lastSaveAt := 0, int64(0)
	// lastPoints reads the distinct points of the manifest on disk, the
	// last save's; false before the first save.
	lastPoints := func() (int64, bool) {
		data, err := os.ReadFile(manifest)
		if err != nil {
			return 0, false
		}
		last, _, err := pyramid.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		return last.Points(), true
	}
	hook := func(site string) error {
		if site != "pyramid.save" {
			return nil
		}
		// The step runs before the write: the file on disk is the last save's.
		if last, ok := lastPoints(); ok && flushedPts.Value()-lastSaveAt < last {
			t.Errorf("save %d after %d flushed points, under the last manifest's %d", saves+1, flushedPts.Value()-lastSaveAt, last)
		}
		saves++
		lastSaveAt = flushedPts.Value()
		return nil
	}
	e, err := Open(Options{Dir: dir, FlushThreshold: 64, StepHook: hook, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"root.a", "root.b", "root.c", "root.d"}
	acked := oracle{}
	head := int64(0)
	post := func(i int) {
		entries := make([]BatchEntry, len(ids))
		for s, id := range ids {
			start := head
			if i%10 == 9 && head > 400 {
				start = head - 400 // late: overwrites flushed points
			}
			batch := make([]series.Point, 16)
			for j := range batch {
				batch[j] = series.Point{T: start + int64(j), V: float64((i*31 + s*7 + j) % 23)}
			}
			entries[s] = BatchEntry{SeriesID: id, Points: batch}
			acked.apply(tortureOp{kind: 'w', id: id, pts: batch})
		}
		if err := e.WriteBatch(entries...); err != nil {
			t.Fatal(err)
		}
		// Nor is a save that is due skipped.
		if last, ok := lastPoints(); ok && flushedPts.Value()-lastSaveAt >= last {
			t.Fatalf("post %d: %d points flushed since the last save, whose manifest holds %d, and no save", i, flushedPts.Value()-lastSaveAt, last)
		}
		if i%10 != 9 {
			head += 16
		}
	}
	i := 0
	for ; i < 400; i++ {
		post(i)
	}
	// End on flushes the manifest has not seen, with points left in the
	// memtable (and the WAL) on top.
	for flushedPts.Value() == lastSaveAt || e.Info().MemtablePoints == 0 {
		if i == 1000 {
			t.Fatal("every automatic flush saved the manifest")
		}
		post(i)
		i++
	}
	t.Logf("%d automatic flush rounds, %d manifest saves", rounds.Value(), saves)
	if n := rounds.Value(); n < 50 || saves < 3 || int64(saves)*5 > n {
		t.Fatalf("%d automatic flush rounds made %d manifest saves; want many rounds, more than the first two saves and at most a fifth as many saves as rounds", n, saves)
	}
	e.Kill()

	reopenedSaves := 0
	e2 := openTestEngine(t, Options{Dir: dir, FlushThreshold: 64, StepHook: func(site string) error {
		if site == "pyramid.save" {
			reopenedSaves++
		}
		return nil
	}})
	if st := e2.pyr.Stats(); st.StaleRanges == 0 {
		t.Fatal("reopen after unsaved flushes re-marked nothing stale")
	}
	full := series.TimeRange{Start: 0, End: head + 256}
	for _, id := range ids {
		snap, err := e2.Snapshot(id, full)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := materialize(t, snap, full), acked.series(id); !seriesEqual(got, want) {
			t.Fatalf("%s: %d points read back, %d acknowledged", id, len(got), len(want))
		}
		pyrVerify(t, e2, id, full.End)
	}
	// The reopened engine paces by the manifest it loaded: an automatic
	// flush of far fewer points than that manifest holds saves nothing.
	entries := make([]BatchEntry, len(ids))
	for s, id := range ids {
		batch := make([]series.Point, 64)
		for j := range batch {
			batch[j] = series.Point{T: head + 64 + int64(j), V: float64(s + j%5)}
		}
		entries[s] = BatchEntry{SeriesID: id, Points: batch}
		acked.apply(tortureOp{kind: 'w', id: id, pts: batch})
	}
	if err := e2.WriteBatch(entries...); err != nil {
		t.Fatal(err)
	}
	if info := e2.Info(); info.MemtablePoints != 0 || reopenedSaves != 0 {
		t.Fatalf("after an automatic flush on reopen: %d memtable points and %d saves, want 0 and 0", info.MemtablePoints, reopenedSaves)
	}
	if err := e2.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := e2.pyr.Stats(); st.StaleRanges != 0 {
		t.Fatalf("the flush after reopen left %d stale ranges", st.StaleRanges)
	}
	for _, id := range ids {
		if n := pyrVerify(t, e2, id, full.End); n == 0 {
			t.Fatalf("%s: pyramid unused after the rebuild", id)
		}
	}
}
