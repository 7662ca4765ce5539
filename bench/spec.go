package main

// The benchmark's fixed vocabulary: workload names, metric names and units.
// BENCHMARK.json repeats these lists for the driver; TestSpecMatchesBenchmarkJSON
// keeps the two in step.

const (
	wlDashAligned = "dash_aligned"
	wlPaperCold   = "paper_cold"
	wlIngestOOO   = "ingest_ooo"
	wlMixedOpen   = "mixed_open"
)

// metricSpec names one metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd lists what a user of the server sees. Every workload reports
// every one of them on an untraced run, over its own request mix.
//
// The tail is a p90: a percentile is taken over the positions of a lap, the
// laps are kept short so that a window holds many rounds of them, and the
// shortest (104 positions) leaves the ten samples the rule asks for beyond
// the 90th percentile and no higher one.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"mean_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_kb_per_op", "KiB"},
	{"disk_bytes_per_point", "B"},
	{"reopen_s", "s"},
}

// perLayer lists what the traced run measures at the layer boundaries. A
// layer a workload never enters reports 0.
var perLayer = []metricSpec{
	{"server.handler_render_us", "us"},
	{"server.handler_query_us", "us"},
	{"server.handler_write_us", "us"},
	{"server.tcp_overhead_us", "us"},
	{"server.json_encode_us", "us"},
	{"server.json_bytes", "B"},
	{"server.write_parse_us", "us"},
	{"server.shed_total", "count"},
	{"server.events_dropped", "count"},
	{"m4ql.parse_us", "us"},
	{"m4ql.exec_self_us", "us"},
	{"lsm.snapshot_us", "us"},
	{"lsm.snapshot_chunk_refs", "count"},
	{"lsm.snapshot_allocs", "count"},
	{"lsm.write_batch_us", "us"},
	{"lsm.flush_count", "count"},
	{"lsm.flush_ms_p50", "ms"},
	{"lsm.flush_ms_max", "ms"},
	{"lsm.pyramid_rebuilds", "count"},
	{"lsm.pyramid_saves", "count"},
	{"lsm.wal_bytes_per_point", "B"},
	{"lsm.wal_fsyncs", "count"},
	{"lsm.wal_records_per_group", "count"},
	{"lsm.wal_rotations", "count"},
	{"lsm.write_amp", "ratio"},
	{"lsm.backpressure_total", "count"},
	{"lsm.replay_s", "s"},
	{"lsm.replay_records", "count"},
	{"lsm.compact_s", "s"},
	{"m4lsm.compute_us", "us"},
	{"m4lsm.chunks_loaded_per_query", "count"},
	{"m4lsm.points_decoded_per_query", "count"},
	{"m4lsm.chunks_pruned_per_query", "count"},
	{"m4lsm.prune_ratio", "ratio"},
	{"m4lsm.probes_per_query", "count"},
	{"m4lsm.pyramid_cells_per_query", "count"},
	{"m4lsm.pyramid_fallback_spans", "count"},
	{"m4lsm.allocs_per_query", "count"},
	{"m4lsm.alloc_kb_per_query", "KiB"},
	{"m4lsm.full_ms", "ms"},
	{"m4udf.full_ms", "ms"},
	{"paper.lsm_speedup", "ratio"},
	{"mergeread.merge_ns_per_point", "ns"},
	{"tsfile.read_chunk_us", "us"},
	{"tsfile.read_times_us", "us"},
	{"encoding.decode_times_ns_per_point", "ns"},
	{"encoding.decode_values_ns_per_point", "ns"},
	{"encoding.encode_ns_per_point", "ns"},
	{"encoding.bytes_per_point", "B"},
	{"stepreg.build_us", "us"},
	{"stepreg.probe_ns", "ns"},
	{"cache.warm_read_us", "us"},
	{"viz.rasterize_us", "us"},
	{"viz.png_encode_us", "us"},
	{"viz.png_bytes", "B"},
	{"trace.coverage_ratio", "ratio"},
	{"trace.overhead_pct", "%"},
	{"load.max_rate_ok", "1/s"},
}

// scale sizes one workload. The full sizes fit the driver's time cap on a
// two-core machine (three set-ups plus the measured window per run); smoke
// sizes let `go test` run all four workloads in seconds.
type scale struct {
	points      int // points per series loaded at set-up
	lap         int // requests per round of an untraced window; every round sends the same lap
	width       int // pixel columns of a /render
	tracedReqs  int // requests per traced pass
	fullQueries int // direct full-range calls behind m4lsm.full_ms / m4udf.full_ms
	setups      int // set-ups per untraced run; setup_s is their median
	reopens     int // reopen cycles after each timed round; reopen_s is the fastest of all
}

var fullScale = map[string]scale{
	wlDashAligned: {points: 1 << 19, lap: 200, width: 1024, tracedReqs: 300, fullQueries: 5, setups: 3, reopens: 3},
	wlPaperCold:   {points: 1 << 18, lap: 104, width: 1024, tracedReqs: 96, fullQueries: 15, setups: 5, reopens: 3},
	wlIngestOOO:   {points: 1 << 12, lap: 400, width: 1024, tracedReqs: 400, fullQueries: 5, setups: 3, reopens: 3},
	wlMixedOpen:   {points: 1 << 13, lap: 120, width: 1024, tracedReqs: 300, fullQueries: 5, setups: 3, reopens: 3},
}

var smokeScale = map[string]scale{
	wlDashAligned: {points: 1 << 14, lap: 25, width: 256, tracedReqs: 24, fullQueries: 2, setups: 1, reopens: 1},
	wlPaperCold:   {points: 1 << 14, lap: 24, width: 256, tracedReqs: 24, fullQueries: 2, setups: 1, reopens: 2},
	wlIngestOOO:   {points: 1 << 10, lap: 50, width: 256, tracedReqs: 24, fullQueries: 2, setups: 1, reopens: 2},
	wlMixedOpen:   {points: 1 << 11, lap: 20, width: 256, tracedReqs: 24, fullQueries: 2, setups: 1, reopens: 2},
}

// Open-loop rates of mixed_open, in requests per second. They are constants:
// the generator never adapts to how the server is doing.
const (
	rateLo        = 60.0
	ladderP95MS   = 50.0 // a rung holds when its p95 stays at or under this
	ladderBacklog = 1.0  // ... and fewer than this many seconds of arrivals are still waiting at its end
	maxLagShare   = 0.10 // a rung is void when the generator ran later than this share of the gap
)

var ladderRates = []float64{60, 80, 100, 125, 160}

// defaultSeconds is the measured window of an untraced run; BENCHMARK.json's
// run_seconds repeats it.
const defaultSeconds = 20

// checkEvery picks the responses compared with the M4-UDF oracle.
const checkEvery = 50
