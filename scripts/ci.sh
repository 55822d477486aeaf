#!/usr/bin/env bash
# CI gate: vet, build, race-enabled tests (serial and parallel worker
# settings), and a benchmark smoke run. Mirrors what reviewers run by
# hand; keep it fast enough for every push.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "FAIL: gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== metrics lint (README table vs registered families)"
scripts/metrics_lint.sh

echo "== go build"
go build ./...

# Net non-test Go outside bench/ may only shrink: the ceiling is the
# count the last simplification PR reached. Lower it when you delete
# code; raise it only with a reason in CHANGES.md.
ceiling=$(cat scripts/loc_ceiling)
echo "== non-test LoC ratchet (<= $ceiling)"
loc=$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l)
if [ "$loc" -gt "$ceiling" ]; then
    echo "FAIL: $loc non-test Go lines > ceiling $ceiling" >&2
    exit 1
fi

# The architecture gates: one table of rows, one per kept design
# decision (what stays deleted, where a call may live, which signatures
# and option fields are pinned). `go test .` runs it too.
echo "== architecture gates"
scripts/gates.sh

# The repo benchmark is a nested module that compiles against internal
# packages; tier-1 `go test ./...` does not enter it.
echo "== bench module (vet + smoke test)"
(cd bench && go vet . && go test .)

echo "== go test -race (engine default workers)"
go test -race ./...

echo "== go test -race (GPTUNE_WORKERS=4)"
GPTUNE_WORKERS=4 go test -race ./internal/parallel ./internal/kernel \
    ./internal/linalg ./internal/gp ./internal/lcm ./internal/core \
    ./internal/sensitivity ./internal/optimize

echo "== crowd + cluster race-stress suite"
go test -race -run 'Stress' -count=1 ./internal/crowd ./internal/cluster

# The chaos failover e2e already ran above on its default schedule
# (seed 1); replay it on a fixed matrix of extra seeds so distinct
# fault interleavings stay covered on every push. A failure names its
# seed — reproduce with CHAOS_SEED=<seed>.
echo "== chaos failover e2e seed matrix"
for seed in 7 13; do
    echo "-- chaos seed $seed"
    CHAOS_SEED=$seed go test -race -count=1 \
        -run '^TestClusterChaosStressAutoFailover$' ./internal/cluster
done

echo "== fuzz smoke (10s per target)"
fuzz_targets=$(grep -r --include='*_test.go' --exclude-dir=.bench_build -oE '^func Fuzz[A-Za-z0-9_]+' . |
    sed -E 's#^(.*)/[^/]*:func (.*)#\2 \1#' | sort)
echo "-- $(grep -c . <<<"$fuzz_targets") targets"
[ -n "$fuzz_targets" ] || { echo "FAIL: no fuzz targets found" >&2; exit 1; }
while read -r target dir; do
    (cd "$dir" && go test -run "^${target}\$" -fuzz "^${target}\$" -fuzztime=10s .)
done <<<"$fuzz_targets"

cover_pkgs="crowd cluster historydb taskpool core suggest replog shardring chaos copula sgp surrogate tla"
echo "== coverage floor (${cover_pkgs// / + } >= 80%)"
go test -count=1 -cover $(printf './internal/%s ' $cover_pkgs) | tee /tmp/cover.txt
awk '
/coverage:/ {
    for (i = 1; i <= NF; i++) if ($i == "coverage:") pct = $(i+1) + 0
    if (pct < 80) { print "FAIL: " $2 " coverage " pct "% < 80%"; bad = 1 }
}
END { exit bad }' /tmp/cover.txt

echo "== bench smoke"
go test -run '^$' -bench 'Parallel|GPFit100|LCMFitTwoTasks|SaltelliSensitivity|SuggestEndpoint' \
    -benchtime 1x -benchmem .

echo "== repository read-path bench smoke (stores of 1k and 10k documents)"
go test -run '^$' -bench '^(BenchmarkUpload|BenchmarkQueryByProblem)$' \
    -benchtime 1x -benchmem ./internal/crowd

alloc_guard() { # benchmark max what: run it 200x, fail above max allocs/op or if it did not run
    echo "== $3 allocation guard (<= $2 allocs/op)"
    go test -run '^$' -bench "^$1\$" -benchtime 200x -benchmem . | tee "/tmp/$1.txt"
    awk -v bench="$1" -v max="$2" -v what="$3" '
    $1 ~ "^" bench {
        for (i = 1; i <= NF; i++) if ($(i) == "allocs/op") allocs = $(i-1) + 0
        found = 1
        if (allocs > max) { print "FAIL: " what " " allocs " allocs/op > " max; bad = 1 }
    }
    END { if (!found) { print "FAIL: " bench " did not run"; bad = 1 } exit bad }' "/tmp/$1.txt"
}
alloc_guard BenchmarkSuggestHotPath "${SUGGEST_MAX_ALLOCS:-80}" "suggest hot path"
alloc_guard BenchmarkSuggestBatchHotPath "${SUGGEST_BATCH_MAX_ALLOCS:-1400}" "suggest batch path"

echo "CI gate passed."
