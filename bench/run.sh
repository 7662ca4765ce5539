#!/usr/bin/env bash
# Build the benchmark from source into .bench_build (inside the checkout, so
# nothing is read or written elsewhere) and run it with the given arguments.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOMAXPROCS="$(nproc)"
(cd "$root/bench" && go build -o "$build/m4bench" .)
cd "$root"
exec "$build/m4bench" "$@"
