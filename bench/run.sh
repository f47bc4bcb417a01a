#!/usr/bin/env bash
# BENCHMARK.json's command: builds the benchmark (package repro/bench of the
# repository's own module) and runs it from the repository root with the
# arguments given. The binary and Go's caches live in .bench_build/, so that
# nothing is written outside the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export GOCACHE="$PWD/.bench_build/gocache" GOMODCACHE="$PWD/.bench_build/gomodcache"
go build -buildvcs=false -o .bench_build/bench ./bench
exec .bench_build/bench "$@"
