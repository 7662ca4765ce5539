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

.PHONY: build install test race race-short vet lint check cover difftest bench-check microbench bench bench-smoke fuzz torture soak profile

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
# footers, record logs, the pyramid manifest), the m4ql parser including the REPRESENT
# clause, the /write line-protocol parser, the Gorilla codec against its
# bit-at-a-time reference, the step-regression build against its
# reference, and the pyramid's range-set algebra against a bitmap. Go
# allows one -fuzz target per invocation, so each runs separately for
# FUZZTIME (the seed corpus also runs in plain `make test`).
fuzz:
	$(GO) test ./internal/m4ql -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzWriteBody$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/lsm -run '^$$' -fuzz '^FuzzDecodeInsert$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/lsm -run '^$$' -fuzz '^FuzzDecodeWALDelete$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/lsm -run '^$$' -fuzz '^FuzzBackupManifest$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tsfile -run '^$$' -fuzz '^FuzzOpen$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tsfile -run '^$$' -fuzz '^FuzzRecordLog$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tsfile -run '^$$' -fuzz '^FuzzSegmentHeader$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/encoding -run '^$$' -fuzz '^FuzzBitStream$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/encoding -run '^$$' -fuzz '^FuzzDecodeValues$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/stepreg -run '^$$' -fuzz '^FuzzStepregBuild$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/pyramid -run '^$$' -fuzz '^FuzzDecodeManifest$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/pyramid -run '^$$' -fuzz '^FuzzRsetOps$$' -fuzztime $(FUZZTIME)

# lint forbids ad-hoc printing in library code: internal/ packages must log
# through log/slog (the server injects a request-scoped logger) so output
# stays structured and greppable. Commands, examples and tests are exempt.
# It also keeps raw sleeps out of library code, keeps the query layers
# (root package, m4ql, server) from growing a second read path beside
# m4ql.Read (exactly one engine Snapshot call, in internal/m4ql/exec.go, and
# the server's two executor calls: serve, the series listing),
# keeps one merge-all read (mergeread's chunk load has one caller,
# mergeread.Read, and the operator packages run no worker pool but
# govern.RunPool), keeps one task shape in m4lsm (one RunPool call, in
# runWave, and one FP-substitution site, in assemble),
# keeps examples/ on the public package (no m4lsm/internal/ import), keeps
# internal/lsm from growing a second write path, a second chunk-file writer
# or reaching into the WAL, keeps internal/pyramid from depending on the
# engine, keeps a second measurement stack from growing beside bench/, keeps
# the chunk read path columnar, and checks that every test DESIGN.md's
# invariant table names exists.
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
	@bad=$$(grep -nE '\b(e|engine)\.Snapshot\(' *.go internal/m4ql/*.go internal/server/*.go \
		| grep -v '_test\.go:' \
		| grep -v -e '^internal/m4ql/exec\.go:'; true); \
	n=$$(grep -cHE '\b(e|engine)\.Snapshot\(' internal/m4ql/exec.go); \
	x=$$(grep -cE 'm4ql\.(Read|Exec|ExecuteContext|Run|RunContext|RunAny|Explain)\(' \
		$$(ls internal/server/*.go | grep -v '_test\.go$$') | grep -v ':0$$' | tr '\n' ' '); \
	if [ -n "$$bad" ] || [ "$$n" != "internal/m4ql/exec.go:1" ] || \
		[ "$$x" != "internal/server/server.go:1 internal/server/ui.go:1 " ]; then \
		echo "lint: queries take their snapshots in one place, m4ql.Read (internal/m4ql/exec.go);"; \
		echo "build a Statement and call it. The server calls m4ql's executor twice: in serve (server.go),"; \
		echo "the one pipeline of /query and /render, and for the series listing (ui.go)."; \
		echo "$$bad"; echo "snapshot calls: $$n"; echo "server executor calls: $$x"; exit 1; \
	fi
	@n=$$(grep -nE '(^|[^.[:alnum:]_])load\(' $$(ls internal/mergeread/*.go | grep -v '_test\.go$$') \
		| grep -v 'func load(' | cut -d: -f1 | tr '\n' ' '); \
	bad=$$(grep -nE 'sync\.WaitGroup|(^|[^[:alnum:]_])go func' \
		$$(ls internal/m4lsm/*.go internal/m4udf/*.go internal/mergeread/*.go internal/groupby/*.go | grep -v '_test\.go$$'); true); \
	if [ -n "$$bad" ] || [ "$$n" != "internal/mergeread/mergeread.go " ]; then \
		echo "lint: one merge-all read: chunks are loaded for a merge in one place, mergeread's load, called"; \
		echo "once, by mergeread.Read (the UDF baseline, LTTB and GROUP BY's scan are folds over it);"; \
		echo "the operators fan work out on govern.RunPool only, never on a WaitGroup or goroutine of their own."; \
		echo "$$bad"; echo "load call sites: $$n"; exit 1; \
	fi
	@src=$$(ls internal/m4lsm/*.go | grep -v '_test\.go$$'); \
	n=$$(cat $$src | grep -c 'govern\.RunPool('); \
	s=$$(cat $$src | grep -c 'substituted FP'); \
	if [ "$$n" != 1 ] || [ "$$s" != 1 ]; then \
		echo "lint: one task shape in m4lsm: spans and pyramid fragments are chunk lists run by the same two"; \
		echo "waves, so the package has one govern.RunPool call (runWave) and one FP-substitution warning (assemble)."; \
		echo "RunPool calls: $$n, FP-substitution sites: $$s"; exit 1; \
	fi
	@bad=$$(grep -rlE '"m4lsm/internal/' --include='*.go' examples/; true); \
	if [ -n "$$bad" ]; then \
		echo "lint: examples use the public package only (m4lsm: Open, Write, QueryContext, ...), so an"; \
		echo "outside module can build them; these import m4lsm/internal/:"; \
		echo "$$bad"; exit 1; \
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
	@n=$$(grep -c 'tsfile\.Create(' $$(ls internal/lsm/*.go | grep -v '_test\.go$$') | grep -v ':0$$' | tr '\n' ' '); \
	bad=$$($(GO) list -deps ./internal/pyramid | grep -xE 'm4lsm/internal/(lsm|wal|tsfile)'; true); \
	if [ -n "$$bad" ] || [ "$$n" != "internal/lsm/flush.go:1 " ]; then \
		echo "lint: chunk files are written in one place, writeChunkFile (internal/lsm/flush.go), for flush and"; \
		echo "compaction alike; internal/pyramid knows nothing of the engine, the WAL or the chunk format."; \
		echo "pyramid depends on: $$bad"; echo "tsfile.Create calls: $$n"; exit 1; \
	fi
	@bad=$$(ls BENCH_*.json 2>/dev/null; \
		grep -nE '^bench-[a-z-]*:' Makefile | grep -vE '^[0-9]+:bench-(check|smoke):'; \
		grep -nE '^func Benchmark' *_test.go 2>/dev/null; \
		grep -nE '"m4lsm/internal/(server|obs/history)"' internal/exper/*.go; true); \
	if [ -n "$$bad" ]; then \
		echo "lint: numbers come from one place, bash bench/run.sh (spec in BENCHMARK.json); internal/exper"; \
		echo "only regenerates the paper's tables. No BENCH_*.json at the root, no bench-* target but"; \
		echo "bench-check and bench-smoke, no root-package Benchmark, no server-level sweep in exper."; \
		echo "Exempt: per-package micro-benchmarks beside their code (internal/encoding, internal/tsfile,"; \
		echo "internal/stepreg, internal/m4lsm, internal/viz, internal/pyramid), which make microbench runs once each so they cannot rot."; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -nE 'FromColumns\(|\.Points\(\)|\.Columns\(\)' internal/tsfile/reader.go \
		$$(ls internal/cache/*.go internal/mergeread/*.go internal/m4lsm/*.go internal/m4udf/*.go | grep -v '_test\.go$$'); true); \
	if [ -n "$$bad" ]; then \
		echo "lint: a chunk is loaded, cached, merged and scanned as series.Columns (whose Times()/Values() are"; \
		echo "the shared slices, no copy). Building rows from columns or columns from rows belongs to whoever"; \
		echo "asked for rows (mergeread.Merge's caller, tests) or was handed them (tsfile/writer.go)."; \
		echo "$$bad"; exit 1; \
	fi
	@names=$$(sed -n '/^## [0-9. ]*Invariants/,$$p' DESIGN.md | grep -oE '\b(Test|Fuzz)[A-Za-z0-9_]+' | sort -u); \
	bad=$$(for name in $$names; do \
			grep -rqE "^func $$name\(" --include='*_test.go' --exclude-dir=.bench_build . || echo "$$name"; \
		done); \
	if [ -n "$$bad" ] || [ -z "$$names" ]; then \
		echo "lint: every invariant in DESIGN.md's table names the test, fuzzer or lint that enforces it,"; \
		echo "and each name must resolve (grep -rn 'func <name>(' over *_test.go). Unresolved:"; \
		echo "$$bad"; exit 1; \
	fi

# bench-check compiles and tests the benchmark. bench/ is a module of its
# own (so it stays out of `go build ./...` and the coverage floor), which
# means nothing else notices when an internal rename breaks it.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# microbench runs every per-package micro-benchmark for one iteration: since
# the root-package benchmarks went, nothing else executes them, and a
# benchmark that is never run stops compiling or starts failing unnoticed.
microbench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/encoding ./internal/tsfile ./internal/stepreg ./internal/m4lsm ./internal/viz ./internal/pyramid

# check is the standard gate for this repo: static analysis, the logging,
# backoff, one-read-path, one-merge-all-read, public-examples,
# one-write-path, one-chunk-writer, pyramid-boundary and columnar-read-path
# lints, the
# benchmark module's own vet and tests, one pass of the micro-benchmarks,
# the suite (including the crash-recovery torture and the
# short-mode differential harness) under the race detector, the overload
# soak, the coverage floor, and a short fuzz pass over the recovery parsers.
check: vet lint bench-check microbench race-short soak cover
	$(MAKE) fuzz FUZZTIME=3s

# bench is the one way to measure this repository: four HTTP workloads,
# end-to-end and per-layer metrics, spec in BENCHMARK.json. A speed or size
# claim is `bash bench/run.sh -diff parent.json change.json`. bench-smoke is
# the seconds-short pass of the same workloads with their in-run oracles.
bench:
	bash bench/run.sh

bench-smoke:
	bash bench/run.sh -smoke

# profile runs the paper's Figure 10 sweep under the CPU and heap profilers;
# inspect with `go tool pprof profiles/cpu.pprof`.
profile:
	mkdir -p profiles
	$(GO) run ./cmd/m4paper -exp fig10 -cpuprofile profiles/cpu.pprof -memprofile profiles/heap.pprof
	@echo "profiles written to ./profiles"
