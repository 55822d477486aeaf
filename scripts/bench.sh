#!/usr/bin/env bash
# Development benchmarks beside the repo benchmark (bench/, run with
# `bash bench/run.sh`): the cheap-transfer surrogate benchmark
# (cmd/transferbench) writes BENCH_transfer.json and exits nonzero if
# copula/sgp are not >= 10x faster to fit than LCM or the auto pool
# misses the LCM incumbent; then the Go micro-benchmarks behind the CI
# allocation guards are printed for comparison.
#
# Environment knobs (defaults in parentheses):
#   SEED (9)  TRANSFER_OUT (BENCH_transfer.json)
#   BENCHTIME (500x)  COUNT (3)
set -euo pipefail
cd "$(dirname "$0")/.."

SEED="${SEED:-9}"
TRANSFER_OUT="${TRANSFER_OUT:-BENCH_transfer.json}"
BENCHTIME="${BENCHTIME:-500x}"
COUNT="${COUNT:-3}"

echo "== transferbench (cheap-transfer surrogate pool, 3 source tasks, 10k crowd samples)"
go run ./cmd/transferbench -seed "$SEED" -out "$TRANSFER_OUT"
echo "wrote $TRANSFER_OUT"

echo "== go test -bench Suggest (allocation-guard micro-benchmarks)"
go test -run '^$' -bench 'BenchmarkSuggest(HotPath|BatchHotPath|Endpoint)' \
    -benchtime "$BENCHTIME" -count "$COUNT" -benchmem .
