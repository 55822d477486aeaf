#!/usr/bin/env bash
# Builds the benchmark once into .bench_build/ (never `go run` inside a
# timed region) and runs it with the arguments given:
#
#   bench/run.sh --workload repo_mixed --seed 9 --seconds 14 --trace 0
#       one run of one workload; the last line of standard output is the
#       JSON result (this is BENCHMARK.json's command)
#   bench/run.sh
#       every workload, untraced then traced, written to bench/baseline.json
#   bench/run.sh -aa
#       the untraced set twice; non-zero exit if the two disagree beyond a bound
#
# Everything the build writes — the binary, the go build cache, go's
# temporary and configuration files — stays under .bench_build/ in the
# checkout. In a directory that holds only the benchmark and no program
# to measure, the build fails and the script exits non-zero.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
build=$root/.bench_build
mkdir -p "$build/gotmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp XDG_CONFIG_HOME=$build/config
export GOPATH=$build/gopath GOMODCACHE=$build/gomodcache GOTOOLCHAIN=local GOFLAGS=
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
