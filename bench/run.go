package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"m4lsm/internal/m4"
	"m4lsm/internal/m4ql"
)

// metric is one measured value; samples is how many observations are behind it.
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// runResult is the outcome of one run of one workload.
type runResult struct {
	Workload  string   `json:"workload"`
	Traced    bool     `json:"traced"`
	Seed      int64    `json:"seed"`
	Seconds   int      `json:"seconds"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Metrics   []metric `json:"metrics"`
	// Errors holds the first few failures verbatim; Notes records where a
	// number is not quite what its name says (a percentile lowered for lack
	// of samples, a void ladder rung).
	Errors []string `json:"errors,omitempty"`
	Notes  []string `json:"notes,omitempty"`
}

const maxErrorsKept = 5

func (r *runResult) fail(err error) {
	r.Failed++
	if len(r.Errors) < maxErrorsKept {
		r.Errors = append(r.Errors, err.Error())
	}
}

func (r *runResult) set(name string, value float64, samples int, specs []metricSpec) {
	for _, s := range specs {
		if s.name == name {
			r.Metrics = append(r.Metrics, metric{Name: name, Value: value, Unit: s.unit, Samples: samples})
			return
		}
	}
	panic("bench: metric " + name + " is not in the spec")
}

func (r *runResult) get(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// runConfig is what the command line chooses for one run.
type runConfig struct {
	def     workloadDef
	sc      scale
	seed    int64
	seconds int
	dir     string // scratch directory; the run creates and removes its own subdirectory
}

// setUp loads the workload into a fresh directory and starts serving it.
// Everything a later PR could move out of the request path lands in here:
// the time it takes is the setup_s metric.
func setUp(cfg runConfig, dir string, sampler time.Duration) (*env, *fixture, error) {
	e, err := openEnv(dir, cfg.def.cfg)
	if err != nil {
		return nil, nil, err
	}
	fx, err := cfg.def.load(e.eng, cfg.sc, cfg.seed)
	if err == nil {
		err = e.serve(cfg.def.conns, sampler, nil)
	}
	if err != nil {
		e.eng.Kill()
		return nil, nil, fmt.Errorf("%s: set-up: %w", cfg.def.name, err)
	}
	return e, fx, nil
}

// stored is a response kept for the oracle. A nil body means the data was
// changing under the request, so it is sent again once writes have stopped.
type stored struct {
	req  *request
	body []byte
}

// runUntraced measures the end-to-end metrics of one workload: several
// set-ups, a warm-up round, the measured rounds over real loopback HTTP with
// reopen cycles between them, then a kill, and the oracle checks against the
// recovered engine.
func runUntraced(cfg runConfig) (*runResult, error) {
	res := &runResult{Workload: cfg.def.name, Seed: cfg.seed, Seconds: cfg.seconds}
	root, err := os.MkdirTemp(cfg.dir, cfg.def.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	// Set up several times and keep the last: one set-up is a single
	// sample, too noisy to bound.
	var e *env
	var fx *fixture
	var setups []float64
	for i := 0; i < cfg.sc.setups; i++ {
		dir := filepath.Join(root, fmt.Sprintf("db%d", i))
		start := time.Now()
		if e, fx, err = setUp(cfg, dir, time.Second); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < cfg.sc.setups-1 {
			if err := e.close(); err != nil {
				return nil, err
			}
			os.RemoveAll(dir)
		}
	}

	// Bytes on disk per live point are taken here, where the data is the
	// same for every run of a seed, not after a window whose request count
	// follows the machine's speed.
	disk, err := dirBytes(e.dir, anyFile)
	if err != nil {
		return nil, err
	}
	live, err := fx.livePoints(e.eng)
	if err != nil || live == 0 {
		return nil, fmt.Errorf("%s: counting live points: %d, %v", cfg.def.name, live, err)
	}

	var mu sync.Mutex // two open-loop connections share res and checks
	var checks []stored
	do := func(r *request) bool {
		body, err := e.do(r)
		mu.Lock()
		defer mu.Unlock()
		res.Attempted++
		if err != nil {
			res.fail(err)
			return false
		}
		if r.kind != kindWrite && r.id%checkEvery == 0 {
			if !fx.static {
				body = nil
			}
			checks = append(checks, stored{r, body})
		}
		return true
	}

	// The window is the same lap of requests sent round after round: the
	// generator is rewound before each, so position j of every round is the
	// same read, or a write of the same shape at the series' new heads. A
	// writing workload is flushed first (untimed), so every round starts on
	// empty memtables and meets its flushes and pyramid saves at the same
	// positions. The number of rounds is fixed by the rate and the seconds
	// asked for, not by the clock, so what the engine holds at the end — and
	// with it every count and the reopen that follows — is the same on every
	// run of a seed. The first round is warm-up: connection, caches and the
	// Go heap settle there.
	//
	// What a restart costs the user is measured between the rounds, so that
	// the cycles are spread over the whole run and not bunched inside one
	// hiccup of the machine: the data directory is copied as a kill after the
	// warm-up round would leave it, unflushed writes in the WAL, and after
	// each timed round the copy is opened, asked one query and killed again.
	killed := filepath.Join(root, "killed")
	probe := queryRequest(0, fx.probe, fullRange(fx, 100))
	var reopens []float64
	before := e.reg.Snapshot()
	lap := cfg.sc.lap
	rounds := make([]round, max(minRounds, int(cfg.def.rate*float64(cfg.seconds))/lap))
	var allocated uint64 // over the timed rounds
	for i := range rounds {
		fx.restart()
		if fx.writer != nil {
			if err := e.eng.Flush(); err != nil {
				return nil, fmt.Errorf("%s: flush before round %d: %w", cfg.def.name, i, err)
			}
		}
		alloc, cpu := allocatedBytes(), cpuTime()
		if cfg.def.open {
			reqs := make([]*request, lap)
			for j := range reqs {
				reqs[j] = fx.next(i*lap + j)
			}
			rounds[i].samples = runOpenLoop(reqs, cfg.def.rate, cfg.def.conns, do)
		} else {
			rounds[i].samples = runClosedLoop(lap, i*lap, fx.next, do)
		}
		rounds[i].cpu = cpuTime() - cpu
		if i < warmRounds {
			if err := copyDir(e.dir, killed); err != nil {
				return nil, err
			}
			continue
		}
		allocated += allocatedBytes() - alloc
		for k := 0; k < cfg.sc.reopens; k++ {
			took, err := timeReopen(killed, cfg.def.cfg, probe.stmt)
			if err != nil {
				res.fail(fmt.Errorf("reopen after a kill: %w", err))
			}
			reopens = append(reopens, took)
		}
	}
	after := e.reg.Snapshot()
	if fx.assert != nil {
		if err := fx.assert(func(key string) float64 { return counter(after, key) - counter(before, key) }); err != nil {
			res.fail(err)
		}
	}
	timed := rounds[warmRounds:]
	if cfg.def.open {
		var all []sample
		for _, rd := range timed {
			all = append(all, rd.samples...)
		}
		if r := judgeRung(all, cfg.def.rate); r.void {
			res.Notes = append(res.Notes, fmt.Sprintf("generator ran %v late at p95, more than %.0f%% of the %.1f ms gap: latencies include client delay", r.lag, maxLagShare*100, 1000/cfg.def.rate))
		}
	}

	// The traffic has stopped. Where the data moved under the requests, send
	// the kept ones again now that it stands still. Then kill the engine and
	// check against the recovered one: each kept response against M4-UDF,
	// and every written series read back — ack ⇒ durable.
	for i := range checks {
		if checks[i].body == nil {
			if checks[i].body, err = e.do(checks[i].req); err != nil {
				res.fail(err)
			}
		}
	}
	e.kill()
	if e, err = openEnv(e.dir, cfg.def.cfg); err != nil {
		return nil, err
	}
	defer e.eng.Kill()
	for _, c := range checks {
		if c.body != nil {
			if err := checkResponse(e.eng, c.req, c.body); err != nil {
				res.fail(err)
			}
		}
	}
	if fx.writer != nil {
		for i := range fx.writer.series {
			if err := fx.writer.verify(e.eng, i); err != nil {
				res.fail(err)
			}
		}
	}

	// One latency per position of the lap, the fastest any timed round saw
	// there, and the CPU time of the cheapest round (see fastestAcross).
	// Counts that do not depend on the machine's speed come from all rounds.
	lats := make([][]float64, len(timed))
	cpus := make([]float64, len(timed))
	for i, rd := range timed {
		lats[i] = rd.latenciesMS()
		cpus[i] = ms(rd.cpu) / float64(lap)
	}
	lat := fastestAcross(lats)
	sort.Float64s(lat)
	n, ops := len(lat), lap*len(timed)
	tail := func(want float64) float64 {
		q := supportedPercentile(n, want)
		if q != want {
			res.Notes = append(res.Notes, fmt.Sprintf("p%.0f reported as p%.0f: %d positions leave fewer than ten beyond it", want*100, q*100, n))
		}
		return percentile(lat, q)
	}
	res.set("setup_s", median(setups), len(setups), endToEnd)
	res.set("p50_ms", percentile(lat, 0.50), n, endToEnd)
	res.set("p90_ms", tail(0.90), n, endToEnd)
	res.set("mean_ms", mean(lat), n, endToEnd)
	res.set("cpu_ms_per_op", minOf(cpus), len(cpus), endToEnd)
	res.set("alloc_kb_per_op", float64(allocated)/1024/float64(ops), ops, endToEnd)
	res.set("disk_bytes_per_point", float64(disk)/float64(live), live, endToEnd)
	res.set("reopen_s", minOf(reopens), len(reopens), endToEnd)
	res.Correct = res.Failed == 0
	return res, nil
}

// A window is at least minRounds rounds, the first warmRounds of them warm-up.
const (
	minRounds  = 3
	warmRounds = 1
)

// round is one lap: its samples in request order and the CPU time the
// process spent meanwhile.
type round struct {
	samples []sample
	cpu     time.Duration
}

func (r round) latenciesMS() []float64 {
	out := make([]float64, len(r.samples))
	for i, sm := range r.samples {
		out[i] = ms(sm.latency())
	}
	return out
}

// timeReopen opens the engine in dir, where a kill left it, answers one
// query and kills it again, so dir is left as it was found. The collector
// runs first: the serving engine's garbage is not the reopened one's cost,
// and a cycle that met a collection took up to twice as long as one that
// did not.
func timeReopen(dir string, cfg engineConfig, stmt string) (seconds float64, err error) {
	runtime.GC()
	start := time.Now()
	e, err := openEnv(dir, cfg)
	if err != nil {
		return 0, err
	}
	defer e.eng.Kill()
	_, err = m4ql.Run(e.eng, stmt)
	return time.Since(start).Seconds(), err
}

// fullRange is the M4 query over the probe series' whole set-up extent.
func fullRange(fx *fixture, w int) m4.Query {
	return m4.Query{Tqs: fx.extent.Start, Tqe: fx.extent.End, W: w}
}
