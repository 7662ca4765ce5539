package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"m4lsm/internal/cache"
	"m4lsm/internal/encoding"
	"m4lsm/internal/m4lsm"
	"m4lsm/internal/m4udf"
	"m4lsm/internal/mergeread"
	"m4lsm/internal/series"
	"m4lsm/internal/stepreg"
	"m4lsm/internal/storage"
	"m4lsm/internal/tsfile"
)

// layerFixtures are the single-layer measurements of the traced run: each
// times one public function of one package on the workload's own data — the
// largest chunk of the probe series for the storage layers, the probe
// series' whole extent for the operators.
type layerFixtures struct {
	readChunk, readTimes, warmRead   time.Duration
	decodeTimes, decodeValues        float64 // ns per point
	encode                           float64 // ns per point
	bytesPerPoint                    float64
	stepBuild                        time.Duration
	stepProbe                        float64 // ns per probe
	mergePerPoint                    float64 // ns per point
	lsmFull, udfFull                 time.Duration
	chunkPoints, merged, fullQueries int
}

const (
	fixtureReps   = 200
	headlineSpans = 100
)

// timeMedian runs f reps times and returns the median duration.
func timeMedian(reps int, f func() error) (time.Duration, error) {
	ds := make([]time.Duration, reps)
	for i := range ds {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds[i] = time.Since(start)
	}
	return medianDuration(ds), nil
}

// largestChunk opens the chunk files of dir and returns the reader and
// metadata of the biggest chunk of seriesID. The caller closes the reader.
func largestChunk(dir, seriesID string) (*tsfile.Reader, storage.ChunkMeta, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.tsf"))
	if err != nil {
		return nil, storage.ChunkMeta{}, err
	}
	sort.Strings(paths)
	var best *tsfile.Reader
	var bestMeta storage.ChunkMeta
	for _, p := range paths {
		r, err := tsfile.Open(p)
		if err != nil {
			return nil, storage.ChunkMeta{}, err
		}
		keep := false
		for _, m := range r.Metas() {
			if m.SeriesID == seriesID && m.Count > bestMeta.Count {
				bestMeta, keep = m, true
			}
		}
		if !keep {
			r.Close()
			continue
		}
		if best != nil {
			best.Close()
		}
		best = r
		if bestMeta.Count >= 1000 { // a full chunk at the default flush threshold
			break
		}
	}
	if best == nil {
		return nil, storage.ChunkMeta{}, fmt.Errorf("no chunk of %s under %s", seriesID, dir)
	}
	return best, bestMeta, nil
}

func measureLayerFixtures(e *env, fx *fixture, sc scale) (*layerFixtures, error) {
	lf := &layerFixtures{fullQueries: sc.fullQueries}
	r, meta, err := largestChunk(e.dir, fx.probe)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	lf.chunkPoints = int(meta.Count)
	n := float64(meta.Count)

	if lf.readChunk, err = timeMedian(fixtureReps, func() error { _, err := r.ReadChunk(meta); return err }); err != nil {
		return nil, err
	}
	if lf.readTimes, err = timeMedian(fixtureReps, func() error { _, err := r.ReadTimes(meta); return err }); err != nil {
		return nil, err
	}
	src := cache.Wrap(r, cache.NewLRU(64<<20))
	if _, err := src.ReadChunk(meta); err != nil {
		return nil, err
	}
	if lf.warmRead, err = timeMedian(fixtureReps, func() error { _, err := src.ReadChunk(meta); return err }); err != nil {
		return nil, err
	}

	data, err := r.ReadChunk(meta)
	if err != nil {
		return nil, err
	}
	ts, vs := data.Times(), data.Values()
	codec := encoding.CodecGorilla
	var tb, vb []byte
	enc, _ := timeMedian(fixtureReps, func() error {
		tb = codec.EncodeTimesWith(tb[:0], ts)
		vb = codec.EncodeValuesWith(vb[:0], vs)
		return nil
	})
	lf.encode = float64(enc) / n
	lf.bytesPerPoint = float64(len(tb)+len(vb)) / n
	dt, err := timeMedian(fixtureReps, func() error { _, _, err := codec.DecodeTimesWith(tb); return err })
	if err != nil {
		return nil, err
	}
	dv, err := timeMedian(fixtureReps, func() error { _, _, err := codec.DecodeValuesWith(vb); return err })
	if err != nil {
		return nil, err
	}
	lf.decodeTimes, lf.decodeValues = float64(dt)/n, float64(dv)/n

	var ix *stepreg.Index
	lf.stepBuild, _ = timeMedian(fixtureReps, func() error { ix = stepreg.Build(ts); return nil })
	hits := 0
	probe, _ := timeMedian(fixtureReps, func() error {
		for _, t := range ts {
			if ix.Exists(t) {
				hits++
			}
			if _, ok := ix.FirstAfter(t); ok {
				hits++
			}
		}
		return nil
	})
	if hits == 0 {
		return nil, fmt.Errorf("stepreg: no probe of the chunk's own timestamps hit")
	}
	lf.stepProbe = float64(probe) / (2 * n)

	// mergeread over a sixteenth of the probe series' extent.
	part := series.TimeRange{Start: fx.extent.Start, End: fx.extent.Start + (fx.extent.End-fx.extent.Start)/16}
	merge, err := timeMedian(5, func() error {
		snap, err := e.eng.Snapshot(fx.probe, part)
		if err != nil {
			return err
		}
		pts, err := mergeread.Merge(snap, part)
		lf.merged = len(pts)
		return err
	})
	if err != nil {
		return nil, err
	}
	if lf.merged > 0 {
		lf.mergePerPoint = float64(merge) / float64(lf.merged)
	}

	// The paper's headline, M4-LSM against M4-UDF over the full range. The
	// paper asks for 1000 spans of 10,000 chunks; paper_cold holds 262, so
	// 100 spans keep the query in the paper's regime of several chunks per
	// span, where metadata can prune loads.
	q := fullRange(fx, headlineSpans)
	ctx := context.Background()
	if lf.lsmFull, err = timeMedian(sc.fullQueries, func() error {
		snap, err := e.eng.Snapshot(fx.probe, q.Range())
		if err != nil {
			return err
		}
		_, err = m4lsm.ComputeContext(ctx, snap, q, m4lsm.Options{})
		return err
	}); err != nil {
		return nil, err
	}
	if lf.udfFull, err = timeMedian(sc.fullQueries, func() error {
		snap, err := e.eng.Snapshot(fx.probe, q.Range())
		if err != nil {
			return err
		}
		_, err = m4udf.ComputeContext(ctx, snap, q, m4udf.Options{})
		return err
	}); err != nil {
		return nil, err
	}
	return lf, nil
}

func (lf *layerFixtures) report(set func(name string, v float64, samples int)) {
	set("m4lsm.full_ms", ms(lf.lsmFull), lf.fullQueries)
	set("m4udf.full_ms", ms(lf.udfFull), lf.fullQueries)
	set("paper.lsm_speedup", ratio(ms(lf.udfFull), ms(lf.lsmFull)), lf.fullQueries)
	set("mergeread.merge_ns_per_point", lf.mergePerPoint, lf.merged)
	set("tsfile.read_chunk_us", us(lf.readChunk), fixtureReps)
	set("tsfile.read_times_us", us(lf.readTimes), fixtureReps)
	set("encoding.decode_times_ns_per_point", lf.decodeTimes, lf.chunkPoints)
	set("encoding.decode_values_ns_per_point", lf.decodeValues, lf.chunkPoints)
	set("encoding.encode_ns_per_point", lf.encode, lf.chunkPoints)
	set("encoding.bytes_per_point", lf.bytesPerPoint, lf.chunkPoints)
	set("stepreg.build_us", us(lf.stepBuild), fixtureReps)
	set("stepreg.probe_ns", lf.stepProbe, 2*lf.chunkPoints)
	set("cache.warm_read_us", us(lf.warmRead), fixtureReps)
}

// writeAmplification estimates the bytes the engine wrote to storage per
// 16-byte point it was handed, and the WAL bytes per point. Chunk files and
// the WAL are exact (file sizes, and the registry's live plus retired WAL
// bytes). pyramid.pyr is rewritten whole on every save and grows roughly
// linearly, so it counts as saves × final size ÷ 2.
func writeAmplification(dir string, counters map[string]interface{}) (amp, walPerPoint float64, err error) {
	points := counter(counters, "lsm_points_written_total")
	if points == 0 {
		return 0, 0, nil
	}
	chunkBytes, err := dirBytes(dir, func(name string) bool { return filepath.Ext(name) == ".tsf" })
	if err != nil {
		return 0, 0, err
	}
	pyrBytes, err := dirBytes(dir, func(name string) bool { return name == "pyramid.pyr" })
	if err != nil {
		return 0, 0, err
	}
	wal := counter(counters, "lsm_wal_bytes") + counter(counters, "lsm_wal_retired_bytes_total")
	pyr := counter(counters, "lsm_pyramid_saves_total") * float64(pyrBytes) / 2
	return (float64(chunkBytes) + wal + pyr) / (16 * points), wal / points, nil
}
