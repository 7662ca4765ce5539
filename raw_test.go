package m4lsm

import (
	"bytes"
	"context"
	"image/png"
	"reflect"
	"testing"

	"m4lsm/internal/faultfs"
	"m4lsm/internal/lsm"
	"m4lsm/internal/series"
	"m4lsm/internal/storage"
	"m4lsm/internal/tsfile"
)

func TestRaw(t *testing.T) {
	db := openDB(t)
	db.Write("s", Point{Time: 30, Value: 3}, Point{Time: 10, Value: 1}, Point{Time: 20, Value: 2})
	db.Flush()
	db.Write("s", Point{Time: 20, Value: 9}) // overwrite
	db.Delete("s", 30, 30)
	got, err := db.Raw("s", 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	want := []Point{{Time: 10, Value: 1}, {Time: 20, Value: 9}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Raw = %v, want %v", got, want)
	}
	// Range restriction.
	got, err = db.Raw("s", 15, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Time != 20 {
		t.Fatalf("Raw restricted = %v", got)
	}
	if _, err := db.Raw("s", 10, 10); err == nil {
		t.Error("empty range accepted")
	}
}

func TestRender(t *testing.T) {
	db := openDB(t)
	for i := 0; i < 200; i++ {
		db.Write("s", Point{Time: int64(i * 5), Value: float64((i * 3) % 17)})
	}
	db.Flush()
	raw, err := db.Render("s", 0, 1000, 80, 40)
	if err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != 80 || img.Bounds().Dy() != 40 {
		t.Errorf("bounds = %v", img.Bounds())
	}
	if _, err := db.Render("s", 0, 1000, 0, 40); err == nil {
		t.Error("w=0 accepted")
	}
	if _, err := db.Render("s", 0, 1000, 80, 0); err == nil {
		t.Error("h=0 accepted")
	}
}

// versionSource corrupts the reads of one chunk version and serves the rest.
type versionSource struct {
	ver           storage.Version
	faulty, clean storage.ChunkSource
}

func (s versionSource) pick(m storage.ChunkMeta) storage.ChunkSource {
	if m.Version == s.ver {
		return s.faulty
	}
	return s.clean
}
func (s versionSource) ReadChunk(m storage.ChunkMeta) (series.Columns, error) {
	return s.pick(m).ReadChunk(m)
}
func (s versionSource) ReadTimes(m storage.ChunkMeta) ([]int64, error) { return s.pick(m).ReadTimes(m) }
func (s versionSource) ReadValues(m storage.ChunkMeta) ([]float64, error) {
	return s.pick(m).ReadValues(m)
}

// TestTupleReadsAreStrict: Render and Raw return no Partial flag, so a
// quarantined chunk must fail them; M4Context reports it instead.
func TestTupleReadsAreStrict(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, WithFlushThreshold(20), WithoutPyramid())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		db.Write("s", Point{Time: int64(i * 5), Value: float64((i * 3) % 17)})
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	inj := faultfs.NewInjector(faultfs.Config{Seed: 1, FlipRate: 1})
	e, err := lsm.Open(lsm.Options{Dir: dir, DisablePyramid: true, WrapSource: func(src storage.ChunkSource) storage.ChunkSource {
		faulty := faultfs.Wrap(src, inj)
		faulty.CorruptErr = tsfile.ErrCorrupt
		return versionSource{ver: 2, faulty: faulty, clean: src}
	}})
	if err != nil {
		t.Fatal(err)
	}
	db = &DB{engine: e}
	defer db.Close()

	// The merge-everything operator is certain to read the corrupt chunk.
	res, err := db.M4Context(context.Background(), "s", 0, 500, 10, M4Options{Operator: OperatorUDF})
	if err != nil || !res.Partial || len(res.Warnings) == 0 {
		t.Fatalf("lenient read over a corrupt chunk: partial=%v err=%v", res != nil && res.Partial, err)
	}
	if n := db.Info().QuarantinedChunks; n != 1 {
		t.Fatalf("QuarantinedChunks = %d, want 1", n)
	}
	res, err = db.M4Context(context.Background(), "s", 0, 500, 10, M4Options{})
	if err != nil || !res.Partial {
		t.Fatalf("M4Context over a quarantined chunk: partial=%v err=%v", res != nil && res.Partial, err)
	}
	if _, err := db.Render("s", 0, 500, 50, 20); err == nil {
		t.Error("Render drew a chart with a quarantined chunk missing")
	}
	if _, err := db.Raw("s", 0, 500); err == nil {
		t.Error("Raw returned points with a quarantined chunk missing")
	}
}

func TestM4Multi(t *testing.T) {
	db := openDB(t, WithFlushThreshold(16))
	for s := 0; s < 5; s++ {
		id := string(rune('a' + s))
		for i := 0; i < 64; i++ {
			db.Write(id, Point{Time: int64(i * 10), Value: float64(s*100 + i%9)})
		}
	}
	db.Flush()
	ids := []string{"a", "b", "c", "d", "e"}
	got, err := db.M4Multi(ids, 0, 640, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("series = %d", len(got))
	}
	for s, id := range ids {
		if got[s].SeriesID != id {
			t.Fatalf("series %d = %q, want %q", s, got[s].SeriesID, id)
		}
		aggs := got[s].Aggregates
		if len(aggs) != 4 {
			t.Fatalf("%s: %d spans", id, len(aggs))
		}
		// Each series' values sit in its own band.
		if aggs[0].Bottom.Value < float64(s*100) || aggs[0].Top.Value >= float64(s*100+9) {
			t.Errorf("%s span0 = %+v", id, aggs[0])
		}
		// Must match the single-series result exactly.
		single, _, err := db.M4(id, 0, 640, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i := range single {
			if single[i] != aggs[i] {
				t.Fatalf("%s span %d: multi %v, single %v", id, i, aggs[i], single[i])
			}
		}
	}
	if _, err := db.M4Multi(ids, 5, 5, 1); err == nil {
		t.Error("invalid range accepted")
	}
}
