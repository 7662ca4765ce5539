GO ?= go
FUZZTIME ?= 10s
# Build identity injected into the binaries (m4server -version, the
# build_info metric). Plain `go build` without these falls back to the
# toolchain's embedded VCS stamp.
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
COMMIT  ?= $(shell git rev-parse --short HEAD 2>/dev/null || echo unknown)
LDFLAGS := -X m4lsm/internal/buildinfo.Version=$(VERSION) -X m4lsm/internal/buildinfo.Commit=$(COMMIT)
# COVER_FLOOR is the minimum total statement coverage `make cover` accepts.
# Measured headroom: the suite sits around 75% with the cmd/ mains and
# examples/ at 0%, so 70 fails on a real regression, not on noise.
COVER_FLOOR ?= 70

.PHONY: build install test race race-short vet lint check cover difftest bench-check bench bench-parallel bench-shards bench-obs bench-overload bench-pyramid bench-recovery bench-repr bench-selfobs fuzz torture soak profile

build:
	$(GO) build -ldflags '$(LDFLAGS)' ./...

# install drops versioned binaries into GOBIN.
install:
	$(GO) install -ldflags '$(LDFLAGS)' ./cmd/...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# race-short is the check-time race pass: -short trims the randomized
# sweeps (the 1000-case differential harness runs 200 cases, the m4lsm
# soak is skipped) so the gate stays minutes, not tens of minutes. The
# full-scale versions run in plain `make test` and `make race`.
race-short:
	$(GO) test -race -short ./...

# difftest runs the differential correctness harness on its own at full
# scale: 1000 seed-reproducible random workloads, each answered by
# M4-LSM, M4-UDF and a naive oracle, plus the pixel-equivalence check.
difftest:
	$(GO) test -count=1 -run 'TestDifferential|TestGoldenPixelEquivalence' ./internal/difftest

# cover enforces a total statement-coverage floor (COVER_FLOOR, percent)
# over the short-mode suite; the profile lands in coverage.out for
# `go tool cover -html=coverage.out`.
cover:
	$(GO) test -short -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	if ! awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit !(t+0 >= f+0) }'; then \
		echo "cover: total coverage $$total% is below the $(COVER_FLOOR)% floor"; exit 1; \
	fi

# torture runs the crash-recovery suite on its own: every write-path step
# site gets a simulated kill, recovery is checked against the oracle.
torture:
	$(GO) test -race -run 'Torture|Fault|TornWAL|Quarantine|Cancel' -count=1 ./internal/lsm ./internal/m4lsm ./internal/faultfs

# soak is the short overload torture: admission-control shedding, per-query
# budgets, deadline races in the worker pool, disk-full degradation, and the
# integrity-scrubber passes, all under the race detector. `make check`
# includes it.
soak:
	$(GO) test -race -count=1 -run 'Overload|Admission|Budget|DeadlineRace|ENOSPC|ReadOnly|BodyBounds|Scrub|Ingest' \
		./internal/server ./internal/lsm ./internal/m4lsm ./internal/m4ql ./internal/govern

# fuzz exercises the crash-recovery parsers (WAL payloads, chunk-file
# footers, record logs), the m4ql parser including the REPRESENT
# clause, and the /write line-protocol parser. Go allows one -fuzz
# target per invocation, so each runs separately for FUZZTIME (the seed
# corpus also runs in plain `make test`).
fuzz:
	$(GO) test ./internal/m4ql -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzWriteBody$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/lsm -run '^$$' -fuzz '^FuzzDecodeInsert$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/lsm -run '^$$' -fuzz '^FuzzDecodeWALDelete$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/lsm -run '^$$' -fuzz '^FuzzBackupManifest$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tsfile -run '^$$' -fuzz '^FuzzOpen$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tsfile -run '^$$' -fuzz '^FuzzRecordLog$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tsfile -run '^$$' -fuzz '^FuzzSegmentHeader$$' -fuzztime $(FUZZTIME)

# lint forbids ad-hoc printing in library code: internal/ packages must log
# through log/slog (the server injects a request-scoped logger) so output
# stays structured and greppable. Commands, examples and tests are exempt.
# It also keeps raw sleeps out of library code, keeps the query layers
# (root package, m4ql, server) from growing a second read path, and keeps
# internal/lsm from growing a second write path or reaching into the WAL.
lint:
	@bad=$$(grep -rnE '(log\.(Print|Fatal|Panic)|fmt\.Print)' \
		--include='*.go' --exclude='*_test.go' internal/ *.go 2>/dev/null; true); \
	if [ -n "$$bad" ]; then \
		echo "lint: use log/slog instead of log.Print*/fmt.Print* in library code:"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnE 'time\.Sleep' --include='*.go' --exclude='*_test.go' \
		internal/ *.go 2>/dev/null \
		| grep -v 'internal/govern/backoff\.go' \
		| grep -v 'internal/faultfs/faultfs\.go'; true); \
	if [ -n "$$bad" ]; then \
		echo "lint: library code must not call time.Sleep for backoff; use govern.SleepBackoff"; \
		echo "(deterministic jitter, context-aware). Exempt: govern/backoff.go, faultfs (injected latency)."; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -nE '\b(e|engine)\.Snapshot\(' m4lsm.go raw.go internal/m4ql/*.go internal/server/*.go \
		| grep -v '_test\.go:' \
		| grep -v -e '^internal/m4ql/exec\.go:' -e '^internal/server/ui\.go:' -e '^raw\.go:'; true); \
	n=$$(grep -cE '\b(e|engine)\.Snapshot\(' internal/m4ql/exec.go raw.go | tr '\n' ' '); \
	if [ -n "$$bad" ] || [ "$$n" != "internal/m4ql/exec.go:1 raw.go:1 " ]; then \
		echo "lint: queries take their snapshots in one place, m4ql.Read (internal/m4ql/exec.go);"; \
		echo "build a Statement and call it. Exempt: DB.Raw (raw.go), the series listing in server/ui.go."; \
		echo "$$bad"; echo "snapshot calls: $$n"; exit 1; \
	fi

	@n=$$(grep -cE 'sh\.mem\[[^]]*\] = append\(' internal/lsm/*.go | grep -v '_test\.go:' | grep -v ':0$$' | tr '\n' ' '); \
	bad=$$(grep -rnE '\b(walMu|walAppend)' internal/lsm; \
		grep -rnE 'tsfile\.(CreateSegment|OpenSegmentAppend|ReadSegment|ParseSegment)|wal-%|"wal-' --include='*.go' --exclude='*_test.go' . \
		| grep -v -e '^\./internal/wal/' -e '^\./internal/tsfile/' -e '^\./bench/' -e '^\./cmd/m4server/main\.go:.*flag\.'; true); \
	if [ -n "$$bad" ] || [ "$$n" != "internal/lsm/ingest.go:1 " ]; then \
		echo "lint: inserts reach a memtable in one place, memAppend (internal/lsm/ingest.go), called by"; \
		echo "applyRun and WAL replay; the log is reached through internal/wal's methods only."; \
		echo "Exempt: WAL file globs in tests, the -wal-* flags of m4server."; \
		echo "$$bad"; echo "memtable appends: $$n"; exit 1; \
	fi

# bench-check compiles and tests the benchmark. bench/ is a module of its
# own (so it stays out of `go build ./...` and the coverage floor), which
# means nothing else notices when an internal rename breaks it.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# check is the standard gate for this repo: static analysis, the logging,
# backoff, one-read-path and one-write-path lints, the benchmark module's own vet and tests,
# the suite (including the crash-recovery torture and the
# short-mode differential harness) under the race detector, the overload
# soak, the coverage floor, and a short fuzz pass over the recovery parsers.
check: vet lint bench-check race-short soak cover
	$(MAKE) fuzz FUZZTIME=3s

bench:
	$(GO) test -run '^$$' -bench . -benchtime 10x .

# bench-parallel regenerates the worker-scaling numbers of BENCH_parallel.json.
bench-parallel:
	$(GO) test -run '^$$' -bench 'BenchmarkM4LSMParallel|BenchmarkM4UDFParallel' -benchtime 30x .

# bench-shards regenerates the sharding sweep of BENCH_shard.json.
bench-shards:
	$(GO) run ./cmd/m4bench -exp shards -scale 0.05 -series 16 -reps 10

# bench-overload regenerates the admission-control sweep of BENCH_overload.json.
bench-overload:
	$(GO) run ./cmd/m4bench -exp overload -scale 0.02 -clients 12

# bench-pyramid regenerates the rollup-pyramid sweep of BENCH_pyramid.json:
# fixed-w query latency across three orders of magnitude of data size,
# pyramid on vs off.
bench-pyramid:
	$(GO) run ./cmd/m4bench -exp pyramid -reps 5

# bench-repr regenerates the representation-operator sweep of
# BENCH_repr.json: quality (pixel error, DSSIM vs the full-series raster)
# versus cost (latency, chunk loads) for M4, MinMax, LTTB and MinMaxLTTB
# across dashboard span counts, plus the MinMax zero-chunk pyramid check.
bench-repr:
	$(GO) run ./cmd/m4bench -exp repr -reps 5

# bench-recovery regenerates the crash-recovery sweep of BENCH_recovery.json:
# reopen time and replayed WAL bytes after a kill, monolithic (one huge
# segment, retirement pinned by a cold shard) vs segmented.
bench-recovery:
	$(GO) run ./cmd/m4bench -exp recovery -reps 3

# bench-selfobs regenerates the self-observability sweep of BENCH_selfobs.json:
# M4 query latency with the self-metrics sampler off vs hammering at 2ms,
# plus the sampler's cardinality bound and history queryability checks.
bench-selfobs:
	$(GO) run ./cmd/m4bench -exp selfobs -reps 5

# bench-obs regenerates the observability-overhead numbers of BENCH_obs.json
# (instrumentation off vs metrics vs metrics+trace).
bench-obs:
	$(GO) test -run '^$$' -bench 'BenchmarkM4LSMObs' -benchtime 50x .

# profile runs the paper's Figure 10 sweep under the CPU and heap profilers;
# inspect with `go tool pprof profiles/cpu.pprof`.
profile:
	mkdir -p profiles
	$(GO) run ./cmd/m4bench -exp fig10 -cpuprofile profiles/cpu.pprof -memprofile profiles/heap.pprof
	@echo "profiles written to ./profiles"
