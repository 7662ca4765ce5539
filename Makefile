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
# site gets a simulated kill, recovery is checked against the oracle; and
# the whole of internal/wal: torn tails, group commit, checkpoints and the
# refusal of an older build's segments.
torture:
	$(GO) test -race -run 'Torture|Fault|TornWAL|Quarantine|Cancel' -count=1 ./internal/lsm ./internal/m4lsm ./internal/faultfs
	$(GO) test -race -count=1 ./internal/wal

# soak is the short overload torture: admission-control shedding, per-query
# budgets, deadline races in the worker pool, disk-full degradation, and the
# integrity-scrubber passes, all under the race detector. `make check`
# includes it.
soak:
	$(GO) test -race -count=1 -run 'Overload|Admission|Budget|DeadlineRace|ENOSPC|ReadOnly|BodyBounds|Scrub|Ingest' \
		./internal/server ./internal/lsm ./internal/m4lsm ./internal/m4ql ./internal/govern

# fuzz exercises the crash-recovery parsers (WAL payloads, the delete codec
# the WAL shares with the .mods sidecar, chunk-file footers, record logs, the
# WAL file as Open replays it, the pyramid manifest), the m4ql parser including the REPRESENT
# clause, /query's JSON encoder against encoding/json, the /write parser against its line-by-line reference, the Gorilla codec against its
# bit-at-a-time reference, the timestamp decoder against its per-varint
# reference, the step-regression build against its
# reference, the pyramid's range-set algebra against a bitmap, and the PNG
# encoder against image/png. Go
# allows one -fuzz target per invocation, so each runs separately for
# FUZZTIME (the seed corpus also runs in plain `make test`).
fuzz:
	$(GO) test ./internal/m4ql -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/m4ql -run '^$$' -fuzz '^FuzzQueryJSON$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzWriteBody$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/lsm -run '^$$' -fuzz '^FuzzDecodeInsert$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/lsm -run '^$$' -fuzz '^FuzzDecodeWALDelete$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/lsm -run '^$$' -fuzz '^FuzzBackupManifest$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tsfile -run '^$$' -fuzz '^FuzzOpen$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tsfile -run '^$$' -fuzz '^FuzzRecordLog$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wal -run '^$$' -fuzz '^FuzzOpen$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/encoding -run '^$$' -fuzz '^FuzzBitStream$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/encoding -run '^$$' -fuzz '^FuzzDecodeValues$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/encoding -run '^$$' -fuzz '^FuzzDecodeTimes$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/stepreg -run '^$$' -fuzz '^FuzzStepregBuild$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/pyramid -run '^$$' -fuzz '^FuzzDecodeManifest$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/pyramid -run '^$$' -fuzz '^FuzzRsetOps$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/viz -run '^$$' -fuzz '^FuzzWritePNG$$' -fuzztime $(FUZZTIME)

# lint fails on any Go file gofmt would reformat, tests and bench/ included.
# It forbids ad-hoc printing in library code: internal/ packages must log
# through log/slog (the server injects a request-scoped logger) so output
# stays structured and greppable. Commands, examples and tests are exempt.
# The structural rules (one read path, one merge-all read, one task shape,
# public examples, one write path, sorted on write, one WAL file, one chunk writer,
# fit-at-write, one query encoder, one measurement stack, the columnar read path, recycle at
# query end, one engine lock, no engine goroutines, no library sleeps,
# DESIGN.md's invariant table, no test-only production API and no knob
# only tests set) are
# type-checked in arch_test.go, which plain `go test ./...` runs too.
lint:
	@bad=$$(gofmt -l *.go cmd internal examples bench); \
	if [ -n "$$bad" ]; then \
		echo "lint: gofmt would reformat these files (run gofmt -w):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rnE '(log\.(Print|Fatal|Panic)|fmt\.Print)' \
		--include='*.go' --exclude='*_test.go' internal/ *.go 2>/dev/null; true); \
	if [ -n "$$bad" ]; then \
		echo "lint: use log/slog instead of log.Print*/fmt.Print* in library code:"; \
		echo "$$bad"; exit 1; \
	fi
	$(GO) test -count=1 -run '^TestArchitecture' .

# bench-check compiles and tests the benchmark. bench/ is a module of its
# own (so it stays out of `go build ./...` and the coverage floor), which
# means nothing else notices when an internal rename breaks it.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# microbench runs every per-package micro-benchmark for one iteration: since
# the root-package benchmarks went, nothing else executes them, and a
# benchmark that is never run stops compiling or starts failing unnoticed.
microbench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/encoding ./internal/tsfile ./internal/stepreg ./internal/m4lsm ./internal/viz ./internal/pyramid ./internal/server ./internal/lsm

# check is the standard gate for this repo: static analysis, the logging
# and backoff greps and the architecture rules, the
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
