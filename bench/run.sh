#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds the benchmark from source and
# runs it with the given flags, keeping everything it writes — the Go
# build cache, the binary, segment stores and spill files — under
# .bench_build in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache"
export GOTOOLCHAIN=local GOPROXY=off
go build -o .bench_build/bench ./bench
exec .bench_build/bench -tmp .bench_build "$@"
