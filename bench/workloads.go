package main

import (
	"fmt"
	"math"
	"math/rand"

	"m4lsm/internal/lsm"
	"m4lsm/internal/m4"
	"m4lsm/internal/mergeread"
	"m4lsm/internal/series"
	"m4lsm/internal/workload"
)

// workloadDef is one traffic mix on one engine configuration.
type workloadDef struct {
	name  string
	cfg   engineConfig
	conns int  // client connections, never more than nproc
	open  bool // open loop at fixed rates; otherwise closed loop, one client
	// rate is requests per second of the window asked for. An open loop
	// sends at it; a closed loop takes the number of rounds it runs from it —
	// about what the two-core sandbox completes in the seconds asked for —
	// and then runs at its own pace.
	rate float64
	// load writes the workload's data into a fresh engine and returns the
	// request generator with its oracle.
	load func(eng *lsm.Engine, sc scale, seed int64) (*fixture, error)
}

// fixture is what a loaded workload hands the runners.
type fixture struct {
	// next generates request number id. Calls are sequential and the
	// sequence depends on the seed alone, never on responses or timing.
	next func(id int) *request
	// restart rewinds the generator's random stream to its beginning, so the
	// requests that follow are drawn like the first ones were: the same
	// kinds, windows and series in the same order, reads byte for byte the
	// same, writes at the series' new heads. The untraced run calls it at the
	// start of every lap.
	restart func()
	// probe is the series, and its extent at set-up, that the reopen query
	// and the single-layer fixtures read.
	probe  string
	extent series.TimeRange
	// static says the traffic never changes the data, so a stored response
	// can be checked against the oracle at any later time.
	static bool
	// writer is the write oracle and write generates one more write request
	// of the workload's shape; both nil when the traffic never writes.
	writer *writer
	write  func(id int) *request
	// assert checks the registry counters of an untraced run for the
	// property that gives the workload its character.
	assert func(delta func(key string) float64) error
}

// livePoints counts the user points a full merge of every series returns.
func (f *fixture) livePoints(eng *lsm.Engine) (int, error) {
	if f.writer != nil {
		return f.writer.livePoints(), nil
	}
	snap, err := eng.Snapshot(f.probe, f.extent)
	if err != nil {
		return 0, err
	}
	pts, err := mergeread.Merge(snap, f.extent)
	return len(pts), err
}

var workloads = []workloadDef{
	{
		// The dashboard case the pyramid was built for: every window is
		// cell-aligned, so no chunk is ever loaded and all time is fixed
		// cost — HTTP, snapshot, pyramid planning, rasterize, PNG.
		name: wlDashAligned, cfg: engineConfig{pyramid: true}, conns: 1, rate: 100,
		load: func(eng *lsm.Engine, sc scale, seed int64) (*fixture, error) {
			const id = "root.dash"
			data := randomWalk(sc.points, seed)
			const batch = 4096
			for lo := 0; lo < len(data); lo += batch {
				hi := min(lo+batch, len(data))
				if err := eng.Write(id, data[lo:hi]...); err != nil {
					return nil, err
				}
			}
			if err := eng.Flush(); err != nil {
				return nil, err
			}
			rng := rand.New(rand.NewSource(seed + 1))
			zoom := newDealer(rng, 5) // window = range/2^k, k in 0..4
			return &fixture{
				probe: id, extent: series.TimeRange{Start: 0, End: int64(sc.points)}, static: true,
				restart: func() { rng.Seed(seed + 1); zoom.reset() },
				next: func(i int) *request {
					return renderRequest(i, id, alignedWindow(rng, int64(sc.points), zoom.next(), sc.width))
				},
				assert: func(delta func(string) float64) error {
					loads := delta(`m4_chunks_loaded_total{op="lsm"}`) + delta(`m4_time_blocks_loaded_total{op="lsm"}`)
					if loads != 0 {
						return fmt.Errorf("%s loaded %v chunks; aligned windows must be answered from the pyramid alone", wlDashAligned, loads)
					}
					return nil
				},
			}, nil
		},
	},
	{
		// The paper's own experiment (Table 4 setting): chunks of 1000
		// points, a tenth of them overlapping, deletes, no pyramid, no
		// cache. Span×G candidate verification, block reads, decoding and
		// JSON encoding do the work.
		name: wlPaperCold, cfg: engineConfig{}, conns: 1, rate: 65,
		load: func(eng *lsm.Engine, sc scale, seed int64) (*fixture, error) {
			const id = "root.mf03"
			preset := workload.MF03()
			data := preset.Generate(sc.points, seed)
			if err := workload.Load(eng, id, data, workload.LoadOptions{ChunkSize: 1000, OverlapFraction: 0.10, Seed: seed}); err != nil {
				return nil, err
			}
			del := workload.DeleteOptions{Count: 20, RangeMillis: 500 * preset.IntervalMs, Seed: seed}
			if err := workload.ApplyDeletes(eng, id, data, del); err != nil {
				return nil, err
			}
			first, last := data[0].T, data[len(data)-1].T+1
			rng := rand.New(rand.NewSource(seed + 1))
			// Eight classes: w in {100, 1000} times four window strata that
			// tile 1 .. 1/64 of the range. Within a class both the window
			// fraction and the offset are dealt too, from as many finer strata
			// as a lap holds requests of the class: every lap covers the
			// fractions and the range evenly whatever the seed, latency is
			// continuous in the fraction, and no percentile sits on the edge
			// between two modes.
			const numClasses = 8
			classes := newDealer(rng, numClasses)
			perClass := max(1, sc.lap/numClasses)
			var fractions, offsets [numClasses]*dealer
			for c := range fractions {
				fractions[c], offsets[c] = newDealer(rng, perClass), newDealer(rng, perClass)
			}
			dealt := func(d *dealer) float64 { return (float64(d.next()) + rng.Float64()) / float64(perClass) }
			return &fixture{
				probe: id, extent: series.TimeRange{Start: first, End: last}, static: true,
				restart: func() {
					rng.Seed(seed + 1)
					classes.reset()
					for c := range fractions {
						fractions[c].reset()
						offsets[c].reset()
					}
				},
				next: func(i int) *request {
					c := classes.next()
					w := []int{100, 1000}[c%2]
					u := (float64(c/2) + dealt(fractions[c])) / 4
					win := max(int64(float64(last-first)*math.Pow(64, -u)), int64(w))
					off := first + int64(float64(last-first-win)*dealt(offsets[c]))
					return queryRequest(i, id, m4.Query{Tqs: off, Tqe: off + win, W: w})
				},
				assert: func(delta func(string) float64) error {
					if cells := delta(`m4_pyramid_cells_total{op="lsm"}`); cells != 0 {
						return fmt.Errorf("%s consulted %v pyramid cells; it must run on chunks alone", wlPaperCold, cells)
					}
					return nil
				},
			}, nil
		},
	},
	{
		// The write path alone, acknowledged only when durable: body
		// parse, ingest queue, group-commit WAL with fsync, memtable,
		// flush, pyramid maintenance, WAL retirement.
		name: wlIngestOOO, cfg: engineConfig{pyramid: true, wal: true, syncWAL: true}, conns: 1, rate: 200,
		load: func(eng *lsm.Engine, sc scale, seed int64) (*fixture, error) {
			w := newWriter("root.ing.s", 16, seed, 10, 1)
			if err := w.preload(eng, sc.points, 8, 32); err != nil {
				return nil, err
			}
			// As many points again in the traffic's own shape, late and
			// overwriting posts included, so that what set-up leaves on
			// disk has the overlapping chunks the workload is about.
			for i := 0; i < sc.points*len(w.series)/(8*32); i++ {
				if err := eng.WriteBatch(w.post(i, 8, 32).entries...); err != nil {
					return nil, err
				}
			}
			if err := eng.Flush(); err != nil {
				return nil, err
			}
			return &fixture{
				probe: w.series[0], extent: series.TimeRange{Start: 0, End: w.head[0] + 1}, writer: w,
				restart: w.restart,
				next:    func(i int) *request { return w.post(i, 8, 32) },
				write:   func(i int) *request { return w.post(i, 8, 32) },
			}, nil
		},
	},
	{
		// Reads beside writes on one engine: flush and pyramid rebuild
		// contend with queries for the shard lock, writes stale the cells
		// renders rely on, and snapshots clone a non-empty memtable.
		name: wlMixedOpen, cfg: engineConfig{pyramid: true, wal: true, syncWAL: true}, conns: 2, open: true, rate: rateLo,
		load: func(eng *lsm.Engine, sc scale, seed int64) (*fixture, error) {
			w := newWriter("root.mix.s", 8, seed, 10, 0)
			if err := w.preload(eng, sc.points, 4, 1024); err != nil {
				return nil, err
			}
			if err := eng.Flush(); err != nil {
				return nil, err
			}
			extent := 2 * int64(sc.points) // ticks; in-order points sit on even ticks
			rng := rand.New(rand.NewSource(seed + 1))
			// Of every ten requests four render, three query, three write.
			// Renders are the slowest kind: at half the mix the median would
			// sit on the edge between them and the rest and jump from run to
			// run, so they get 40 %.
			kinds := newDealer(rng, 10)
			zoom := newDealer(rng, 4) // render window = range/2^k, k in 0..3
			write := func(i int) *request { return w.post(i, 4, 16) }
			return &fixture{
				probe: w.series[0], extent: series.TimeRange{Start: 0, End: extent}, writer: w, write: write,
				restart: func() { rng.Seed(seed + 1); kinds.reset(); zoom.reset(); w.restart() },
				next: func(i int) *request {
					s := rng.Intn(len(w.series))
					switch kind := kinds.next(); {
					case kind < 4:
						return renderRequest(i, w.series[s], alignedWindow(rng, extent, zoom.next(), sc.width))
					case kind < 7:
						newest := extent / 64
						q := m4.Query{Tqs: w.head[s] + 1 - newest, Tqe: w.head[s] + 1, W: int(min(256, newest))}
						return queryRequest(i, w.series[s], q)
					default:
						return write(i)
					}
				},
			}, nil
		},
	},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
