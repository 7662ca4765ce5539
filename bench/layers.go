package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"m4lsm/internal/lsm"
	"m4lsm/internal/m4"
	"m4lsm/internal/m4lsm"
	"m4lsm/internal/m4ql"
	"m4lsm/internal/obs"
	"m4lsm/internal/reprops"
	"m4lsm/internal/series"
	"m4lsm/internal/server"
	"m4lsm/internal/storage"
	"m4lsm/internal/viz"
)

// The traced run takes the per-layer numbers from outside the program: the
// benchmark calls each layer's public functions itself, in the order the
// server's handlers do, and records a span around each call.
//
// One stretch of the workload's seeded request sequence is replayed, one
// client, one request at a time, and every request goes down five paths in
// turn before the next one starts — so drift of the machine over the run
// hits all paths alike and their medians compare like with like. A read is
// the same request on every path; a write is generated afresh for each,
// since it cannot be sent twice.
//
//	A  the real server over loopback TCP         end-to-end medians per kind
//	B  the real handler on a ResponseRecorder    the same without TCP
//	C  the shadow handler over loopback TCP      recording spans
//	C' the shadow handler over loopback TCP      nil recorder, same code
//	D  direct calls, allocation counted          Snapshot, compute, WriteBatch
//
// The shadow handlers (/shadow/render, /shadow/query, /shadow/write) do what
// internal/server does, layer call by layer call, minus its bookkeeping
// (events, slow log, metrics, admission). How much of the real end-to-end
// median their spans account for is trace.coverage_ratio.

const (
	hdrParent = "X-Bench-Parent"
	hdrReq    = "X-Bench-Req"
)

// shadow serves the decomposed twins of the server's three endpoints.
type shadow struct {
	eng *lsm.Engine
	reg *obs.Registry
	rec *recorder

	mu        sync.Mutex
	jsonBytes []float64
	pngBytes  []float64
}

// Each handler closes its own span before it writes the response (the
// deferred end only covers the error returns), so every span of a request
// has ended by the time the client has read the answer; writing the response
// counts as the client's http.request self time.

// tracing reads the span context a traced client sent along; an untraced
// request carries none and records nothing.
func (s *shadow) tracing(r *http.Request) (rec *recorder, parent, req int) {
	parent, err := strconv.Atoi(r.Header.Get(hdrParent))
	if err != nil {
		return nil, 0, 0
	}
	req, _ = strconv.Atoi(r.Header.Get(hdrReq))
	return s.rec, parent, req
}

func (s *shadow) mux(real http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/shadow/render", s.render)
	mux.HandleFunc("/shadow/query", s.query)
	mux.HandleFunc("/shadow/write", s.write)
	mux.Handle("/", real)
	return mux
}

func (s *shadow) render(w http.ResponseWriter, r *http.Request) {
	rec, parent, req := s.tracing(r)
	root := rec.begin("server.handler", parent, req)
	defer rec.end(root)
	p := r.URL.Query()
	tqs, err1 := strconv.ParseInt(p.Get("tqs"), 10, 64)
	tqe, err2 := strconv.ParseInt(p.Get("tqe"), 10, 64)
	width, err3 := strconv.Atoi(p.Get("w"))
	height, err4 := strconv.Atoi(p.Get("h"))
	if err := errors.Join(err1, err2, err3, err4); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	id := p.Get("series")
	if !s.eng.HasSeries(id) {
		http.Error(w, "no such series", http.StatusNotFound)
		return
	}
	q := m4.Query{Tqs: tqs, Tqe: tqe, W: width}

	sp := rec.begin("lsm.snapshot", root, req)
	snap, err := s.eng.Snapshot(id, q.Range())
	rec.end(sp)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	sp = rec.begin("m4lsm.compute", root, req)
	reduced, err := m4lsm.ReduceMultiContext(r.Context(), []*storage.Snapshot{snap}, q, reprops.Spec{Kind: reprops.KindM4}, m4lsm.Options{Metrics: s.reg})
	rec.end(sp)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	sp = rec.begin("viz.rasterize", root, req)
	vp := viz.ViewportForAll(reduced, tqs, tqe)
	canvas := viz.NewCanvas(width, height)
	viz.RasterizeOnto(canvas, reduced[0], vp)
	rec.end(sp)

	var buf bytes.Buffer
	sp = rec.begin("viz.png_encode", root, req)
	err = canvas.WritePNG(&buf)
	rec.end(sp)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.mu.Lock()
	s.pngBytes = append(s.pngBytes, float64(buf.Len()))
	s.mu.Unlock()
	rec.end(root)
	w.Header().Set("Content-Type", "image/png")
	w.Write(buf.Bytes())
}

func (s *shadow) query(w http.ResponseWriter, r *http.Request) {
	rec, parent, req := s.tracing(r)
	root := rec.begin("server.handler", parent, req)
	defer rec.end(root)

	sp := rec.begin("m4ql.parse", root, req)
	stmt, err := m4ql.Parse(r.URL.Query().Get("q"))
	rec.end(sp)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// ExecuteContext takes the snapshot and runs the operator itself; path D
	// times those two on their own, and what is left is m4ql's share.
	sp = rec.begin("m4ql.execute", root, req)
	res, err := m4ql.ExecuteContext(r.Context(), s.eng, stmt)
	rec.end(sp)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	sp = rec.begin("json.encode", root, req)
	body, err := json.Marshal(res)
	rec.end(sp)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.mu.Lock()
	s.jsonBytes = append(s.jsonBytes, float64(len(body)))
	s.mu.Unlock()
	rec.end(root)
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

func (s *shadow) write(w http.ResponseWriter, r *http.Request) {
	rec, parent, req := s.tracing(r)
	root := rec.begin("server.handler", parent, req)
	defer rec.end(root)

	sp := rec.begin("server.parse_body", root, req)
	entries, total, err := parseLines(r.Body)
	rec.end(sp)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	sp = rec.begin("lsm.write_batch", root, req)
	err = s.eng.WriteBatch(entries...)
	rec.end(sp)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	rec.end(root)
	fmt.Fprintf(w, `{"points":%d,"series":%d}`+"\n", total, len(entries))
}

// parseLines reads the /write line protocol ("series t v" per line) the way
// the server's unexported parser does, for the shadow handler.
func parseLines(body io.Reader) ([]lsm.BatchEntry, int, error) {
	var order []string
	points := map[string]series.Series{}
	total := 0
	sc := bufio.NewScanner(body)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 3 {
			return nil, 0, fmt.Errorf("want \"series t v\", got %d fields", len(fields))
		}
		t, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, 0, err
		}
		v, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, 0, err
		}
		if _, seen := points[fields[0]]; !seen {
			order = append(order, fields[0])
		}
		points[fields[0]] = append(points[fields[0]], series.Point{T: t, V: v})
		total++
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	entries := make([]lsm.BatchEntry, 0, len(order))
	for _, id := range order {
		entries = append(entries, lsm.BatchEntry{SeriesID: id, Points: points[id]})
	}
	return entries, total, nil
}

// byKind collects one duration list per request kind.
type byKind [numKinds][]time.Duration

func (b *byKind) add(k reqKind, d time.Duration) { b[k] = append(b[k], d) }

// weighted averages f over the kinds that have samples, weighting each kind
// by its sample count: a one-kind workload reads that kind's value.
func (b *byKind) weighted(f func(k reqKind) float64) float64 {
	sum, n := 0.0, 0
	for k := range b {
		if c := len(b[k]); c > 0 {
			sum += f(reqKind(k)) * float64(c)
			n += c
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// directStats is what path D measures around the direct layer calls.
type directStats struct {
	snapshot, compute byKind // render and query
	writeBatch        []time.Duration
	chunkRefs         []float64
	snapAllocs        []float64
	computeAllocs     []float64
	computeAllocKB    []float64
	stats             storage.Stats // summed over the read requests
	reads             int
}

// tracedRun carries the state the five paths share.
type tracedRun struct {
	cfg  runConfig
	res  *runResult
	e    *env
	fx   *fixture
	rec  *recorder
	sh   *shadow
	next int // id of the next request to generate

	e2e, handler   byKind // paths A and B
	traced, silent byKind // paths C and C', timed by the client
	tracedKind     map[int]reqKind
	selfSum        byKind // path C: per request, the sum of its spans' self times
	directStats
}

func (t *tracedRun) take(n int) []*request {
	reqs := make([]*request, n)
	for i := range reqs {
		reqs[i] = t.fx.next(t.next)
		t.next++
	}
	return reqs
}

// again returns r itself for a read and a newly generated write for a write.
func (t *tracedRun) again(r *request) *request {
	if r.kind != kindWrite {
		return r
	}
	t.next++
	return t.fx.write(t.next - 1)
}

func (t *tracedRun) fail(err error) { t.res.fail(err) }

// runTraced measures the per-layer metrics of one workload and writes the
// spans to outDir/trace-<workload>.json.
func runTraced(cfg runConfig, outDir string) (*runResult, error) {
	res := &runResult{Workload: cfg.def.name, Traced: true, Seed: cfg.seed, Seconds: cfg.seconds}
	root, err := os.MkdirTemp(cfg.dir, cfg.def.name+"-traced-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	// The self-metrics sampler stays off here: its writes land on the wall
	// clock, and the counters below are meant to repeat exactly.
	e, err := openEnv(filepath.Join(root, "db"), cfg.def.cfg)
	if err != nil {
		return nil, err
	}
	fx, err := cfg.def.load(e.eng, cfg.sc, cfg.seed)
	if err != nil {
		e.eng.Kill()
		return nil, fmt.Errorf("%s: set-up: %w", cfg.def.name, err)
	}
	t := &tracedRun{cfg: cfg, res: res, e: e, fx: fx, rec: newRecorder(), tracedKind: map[int]reqKind{}}
	t.sh = &shadow{eng: e.eng, reg: e.reg, rec: t.rec}
	if err := e.serve(cfg.def.conns, 0, func(h *server.Handler) http.Handler { return t.sh.mux(h) }); err != nil {
		e.eng.Kill()
		return nil, err
	}

	n := cfg.sc.tracedReqs
	for i := 0; i < n; i++ {
		// One at a time: the write oracle takes the order requests are
		// generated in for the order they reach the engine.
		r := t.take(1)[0]
		t.realTCP(r)
		t.realHandler(t.again(r))
		t.shadowTCP(t.again(r), t.rec)
		t.shadowTCP(t.again(r), nil)
		t.direct(t.again(r))
	}
	t.sumSelfTimes()
	maxRate := 0.0
	if cfg.def.open {
		maxRate = t.ladder()
	}
	res.Attempted = t.next
	counters := e.reg.Snapshot()

	// Kill and reopen: what the WAL makes the next start pay.
	e.kill()
	start := time.Now()
	if t.e, err = openEnv(e.dir, cfg.def.cfg); err != nil {
		return nil, err
	}
	replay := time.Since(start)
	e = t.e
	defer func() { e.eng.Kill() }()
	replayed := e.eng.Info().MemtablePoints
	if fx.writer != nil {
		for i := range fx.writer.series {
			if err := fx.writer.verify(e.eng, i); err != nil {
				t.fail(err)
			}
		}
	}
	if err := e.eng.Flush(); err != nil {
		return nil, err
	}
	lf, err := measureLayerFixtures(e, fx, cfg.sc)
	if err != nil {
		return nil, err
	}
	amp, walPerPoint, err := writeAmplification(e.dir, counters)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	if err := e.eng.Compact(); err != nil {
		return nil, fmt.Errorf("compact: %w", err)
	}
	compact := time.Since(start)

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	if err := t.rec.writeFile(filepath.Join(outDir, "trace-"+cfg.def.name+".json")); err != nil {
		return nil, err
	}

	self := selfByName(t.rec.all())
	med := func(ds []time.Duration) float64 { return us(medianDuration(ds)) }
	set := func(name string, v float64, samples int) { res.set(name, v, samples, perLayer) }
	d := &t.directStats

	set("server.handler_render_us", med(t.handler[kindRender]), len(t.handler[kindRender]))
	set("server.handler_query_us", med(t.handler[kindQuery]), len(t.handler[kindQuery]))
	set("server.handler_write_us", med(t.handler[kindWrite]), len(t.handler[kindWrite]))
	set("server.tcp_overhead_us", t.e2e.weighted(func(k reqKind) float64 { return med(t.e2e[k]) - med(t.handler[k]) }), n)
	set("server.json_encode_us", med(self["json.encode"]), len(self["json.encode"]))
	set("server.json_bytes", mean(t.sh.jsonBytes), len(t.sh.jsonBytes))
	parse := 0.0
	if len(t.handler[kindWrite]) > 0 {
		parse = med(t.handler[kindWrite]) - med(d.writeBatch)
	}
	set("server.write_parse_us", parse, len(t.handler[kindWrite]))
	set("server.shed_total", counter(counters, "http_shed_total")+counter(counters, "http_write_shed_total"), 1)
	set("server.events_dropped", counter(counters, "events_dropped_total"), 1)

	set("m4ql.parse_us", med(self["m4ql.parse"]), len(self["m4ql.parse"]))
	execSelf := 0.0
	if len(self["m4ql.execute"]) > 0 {
		execSelf = max(0, med(self["m4ql.execute"])-med(d.snapshot[kindQuery])-med(d.compute[kindQuery]))
	}
	set("m4ql.exec_self_us", execSelf, len(self["m4ql.execute"]))

	set("lsm.snapshot_us", d.snapshot.weighted(func(k reqKind) float64 { return med(d.snapshot[k]) }), d.reads)
	set("lsm.snapshot_chunk_refs", mean(d.chunkRefs), d.reads)
	set("lsm.snapshot_allocs", mean(d.snapAllocs), d.reads)

	points := counter(counters, "lsm_points_written_total")
	groups := counter(counters, "lsm_wal_group_commits_total")
	flushes, _ := counters["lsm_flush_seconds"].(map[string]interface{})
	set("lsm.write_batch_us", med(d.writeBatch), len(d.writeBatch))
	set("lsm.flush_count", counter(counters, "lsm_flushes_total"), 1)
	set("lsm.flush_ms_p50", 1000*counter(flushes, "p50"), int(counter(flushes, "count")))
	set("lsm.flush_ms_max", 1000*histogramMax(flushes), int(counter(flushes, "count")))
	set("lsm.pyramid_rebuilds", counter(counters, "lsm_pyramid_rebuilds_total"), 1)
	set("lsm.pyramid_saves", counter(counters, "lsm_pyramid_saves_total"), 1)
	set("lsm.wal_bytes_per_point", walPerPoint, int(points))
	set("lsm.wal_fsyncs", groups, 1)
	set("lsm.wal_records_per_group", ratio(counter(counters, "lsm_wal_group_records_total"), groups), int(groups))
	set("lsm.wal_rotations", counter(counters, "lsm_wal_rotations_total"), 1)
	set("lsm.write_amp", amp, int(points))
	set("lsm.backpressure_total", counter(counters, "lsm_ingest_backpressure_total"), 1)
	set("lsm.replay_s", replay.Seconds(), 1)
	set("lsm.replay_records", float64(replayed), 1)
	set("lsm.compact_s", compact.Seconds(), 1)

	inRange := d.stats.ChunksLoaded + d.stats.ChunksPruned
	set("m4lsm.compute_us", d.compute.weighted(func(k reqKind) float64 { return med(d.compute[k]) }), d.reads)
	set("m4lsm.chunks_loaded_per_query", ratio(float64(d.stats.ChunksLoaded), float64(d.reads)), d.reads)
	set("m4lsm.points_decoded_per_query", ratio(float64(d.stats.PointsDecoded), float64(d.reads)), d.reads)
	set("m4lsm.chunks_pruned_per_query", ratio(float64(d.stats.ChunksPruned), float64(d.reads)), d.reads)
	set("m4lsm.prune_ratio", ratio(float64(d.stats.ChunksPruned), float64(inRange)), int(inRange))
	set("m4lsm.probes_per_query", ratio(float64(d.stats.IndexProbes), float64(d.reads)), d.reads)
	set("m4lsm.pyramid_cells_per_query", ratio(float64(d.stats.PyramidCells), float64(d.reads)), d.reads)
	set("m4lsm.pyramid_fallback_spans", ratio(float64(d.stats.PyramidFallbackSpans), float64(d.reads)), d.reads)
	set("m4lsm.allocs_per_query", mean(d.computeAllocs), d.reads)
	set("m4lsm.alloc_kb_per_query", mean(d.computeAllocKB), d.reads)
	lf.report(set)

	set("viz.rasterize_us", med(self["viz.rasterize"]), len(self["viz.rasterize"]))
	set("viz.png_encode_us", med(self["viz.png_encode"]), len(self["viz.png_encode"]))
	set("viz.png_bytes", mean(t.sh.pngBytes), len(t.sh.pngBytes))

	set("trace.coverage_ratio", t.traced.weighted(func(k reqKind) float64 {
		return ratio(med(t.selfSum[k]), med(t.e2e[k]))
	}), n)
	set("trace.overhead_pct", t.traced.weighted(func(k reqKind) float64 {
		return 100 * (ratio(med(t.traced[k]), med(t.silent[k])) - 1)
	}), n)
	set("load.max_rate_ok", maxRate, len(ladderRates))
	res.Correct = res.Failed == 0
	return res, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// histogramMax is the upper bound of the highest bucket a registry histogram
// snapshot has an observation in; its buckets are cumulative, so that is the
// first bound that already holds every observation.
func histogramMax(h map[string]interface{}) float64 {
	buckets, _ := h["buckets"].(map[string]int64)
	var bounds []float64
	for k := range buckets {
		if b, err := strconv.ParseFloat(k, 64); err == nil && !math.IsInf(b, 0) {
			bounds = append(bounds, b)
		}
	}
	sort.Float64s(bounds)
	for _, b := range bounds {
		if buckets[strconv.FormatFloat(b, 'g', -1, 64)] >= buckets["+Inf"] {
			return b
		}
	}
	if len(bounds) == 0 {
		return 0
	}
	return bounds[len(bounds)-1]
}

// realTCP is path A: the real server over the loopback listener. On a
// workload whose data stands still, some responses also go to the oracle.
func (t *tracedRun) realTCP(r *request) {
	start := time.Now()
	body, err := t.e.do(r)
	t.e2e.add(r.kind, time.Since(start))
	if err == nil && t.fx.static && r.id%checkEvery == 0 {
		err = checkResponse(t.e.eng, r, body)
	}
	if err != nil {
		t.fail(err)
	}
}

// realHandler is path B: Handler.ServeHTTP on a recorder, no TCP.
func (t *tracedRun) realHandler(r *request) {
	method, body := httpMethod(r)
	req := httptest.NewRequest(method, r.url, body)
	rr := httptest.NewRecorder()
	start := time.Now()
	t.e.h.ServeHTTP(rr, req)
	t.handler.add(r.kind, time.Since(start))
	if rr.Code != http.StatusOK {
		t.fail(fmt.Errorf("handler %s: status %d: %s", r.url, rr.Code, strings.TrimSpace(rr.Body.String())))
	}
}

// shadowTCP is paths C and C': the shadow handler over TCP, recording into
// rec or, with a nil rec, running the same code without recording. The gap
// between the two medians is what recording costs.
func (t *tracedRun) shadowTCP(r *request, rec *recorder) {
	method, body := httpMethod(r)
	req, err := http.NewRequest(method, t.e.base+"/shadow"+r.url, body)
	if err != nil {
		t.fail(err)
		return
	}
	start := time.Now()
	root := rec.begin("http.request", 0, r.id)
	if root != 0 {
		req.Header.Set(hdrParent, strconv.Itoa(root))
		req.Header.Set(hdrReq, strconv.Itoa(r.id))
	}
	resp, err := t.e.client.Do(req)
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("/shadow%s: status %d", r.url, resp.StatusCode)
		}
	}
	rec.end(root)
	elapsed := time.Since(start)
	switch {
	case err != nil:
		t.fail(err)
	case rec == nil:
		t.silent.add(r.kind, elapsed)
	default:
		t.traced.add(r.kind, elapsed)
		t.tracedKind[r.id] = r.kind
	}
}

// sumSelfTimes adds up, per traced request, the self times of its spans:
// what the trace accounts for.
func (t *tracedRun) sumSelfTimes() {
	spans := t.rec.all()
	self := selfTimes(spans)
	sums := map[int]time.Duration{}
	for _, s := range spans {
		sums[s.Req] += self[s.ID]
	}
	for id, kind := range t.tracedKind {
		t.selfSum.add(kind, sums[id])
	}
}

// direct is path D: the layers called directly, with the allocator read
// before and after each call (which stops the world, so nothing here is
// timed across a read).
func (t *tracedRun) direct(r *request) {
	d := &t.directStats
	ctx := context.Background()
	if r.kind == kindWrite {
		start := time.Now()
		err := t.e.eng.WriteBatch(r.entries...)
		d.writeBatch = append(d.writeBatch, time.Since(start))
		if err != nil {
			t.fail(err)
		}
		return
	}
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	snap, err := t.e.eng.Snapshot(r.series, r.q.Range())
	took := time.Since(start)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.fail(err)
		return
	}
	d.snapshot.add(r.kind, took)
	start = time.Now()
	if r.kind == kindRender {
		_, err = m4lsm.ReduceMultiContext(ctx, []*storage.Snapshot{snap}, r.q, reprops.Spec{Kind: reprops.KindM4}, m4lsm.Options{Metrics: t.e.reg})
	} else {
		_, err = m4lsm.ComputeContext(ctx, snap, r.q, m4lsm.Options{Metrics: t.e.reg})
	}
	took = time.Since(start)
	runtime.ReadMemStats(&m2)
	if err != nil {
		t.fail(err)
		return
	}
	d.compute.add(r.kind, took)
	d.reads++
	d.chunkRefs = append(d.chunkRefs, float64(len(snap.Chunks)))
	d.snapAllocs = append(d.snapAllocs, float64(m1.Mallocs-m0.Mallocs))
	d.computeAllocs = append(d.computeAllocs, float64(m2.Mallocs-m1.Mallocs))
	d.computeAllocKB = append(d.computeAllocKB, float64(m2.TotalAlloc-m1.TotalAlloc)/1024)
	d.stats.Add(snap.Stats.Load())
}

// ladder runs the open-loop rate ladder against the real server and returns
// the highest rate that holds. Each rung lasts a tenth of the run's seconds.
func (t *tracedRun) ladder() float64 {
	var mu sync.Mutex
	do := func(r *request) bool {
		_, err := t.e.do(r)
		if err != nil {
			mu.Lock()
			t.fail(err)
			mu.Unlock()
		}
		return err == nil
	}
	var rungs []rung
	for _, rate := range ladderRates {
		reqs := t.take(int(rate * float64(t.cfg.seconds) / 10))
		r := judgeRung(runOpenLoop(reqs, rate, t.cfg.def.conns, do), rate)
		rungs = append(rungs, r)
		t.res.Notes = append(t.res.Notes, fmt.Sprintf("ladder %3.0f/s: n=%d p95=%.2f ms failures=%d backlog=%.2f s lag=%v void=%v holds=%v",
			r.rate, r.requests, r.p95MS, r.failures, r.backlogS, r.lag, r.void, r.holds))
	}
	return maxRateOK(rungs)
}
