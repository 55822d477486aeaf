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

# The serving tier reaches every model through core.Surrogate and
# surrogate.New; a model-family import means a per-kind branch is back.
echo "== internal/suggest imports no model family"
if go list -f '{{join .Imports "\n"}}' ./internal/suggest | grep -E 'internal/(gp|sgp|copula|lcm)$'; then
    echo "FAIL: internal/suggest imports a model-family package" >&2
    exit 1
fi

# One propose step, one selector: every tuner, NoTLA included, is a row
# of the surrogate table run by surrogate.Pool; a second implementation
# means a private propose loop (its own ingestion, warm-up, degradation
# and stage timers) is back. internal/core holds the loop and the
# search, and no model; internal/tla is model math only.
echo "== Propose(ctx *core.ProposeContext) has exactly one implementation; internal/core imports no model family"
proposers=$(grep -rlE 'func \([^)]*\) Propose\(ctx \*(core\.)?ProposeContext\)' --include='*.go' --exclude-dir=.bench_build . \
    | grep -v '_test\.go$' | sort | tr '\n' ' ')
if [ "$proposers" != "./internal/surrogate/pool.go " ]; then
    echo "FAIL: core.Proposer is implemented in: $proposers" >&2
    exit 1
fi
if go list -f '{{join .Imports "\n"}}' ./internal/core | grep -E 'internal/(gp|sgp|copula|lcm|tla|surrogate)$'; then
    echo "FAIL: internal/core imports a model family" >&2
    exit 1
fi
if grep -rnE 'type (Ensemble|MultitaskTS|Fixed|GPTuner) |func (NewFixed|NewEnsemble|equalWeightFirstEval|NewGPTuner)\(' --include='*.go' --exclude-dir=.bench_build .; then
    echo "FAIL: a deleted tuner type is back" >&2
    exit 1
fi
if grep -rnE '\bFixedNoise\b|\bProbeInterval\b' --include='*.go' --exclude-dir=.bench_build .; then
    echo "FAIL: a deleted option (gp.Options.FixedNoise, NodeConfig.ProbeInterval) is back" >&2
    exit 1
fi

# One inverse, forward-only variance: the GP and LCM likelihood
# gradients invert through Cholesky.Inverse (row-contiguous, potri's
# shape), and every predictive variance is prior − ‖L⁻¹k‖² from one
# forward substitution. The per-column inverse and the two-solve
# scratch form stay deleted.
echo "== InverseWorkers and SolveVecInto stay deleted; Cholesky.Inverse serves the two likelihood gradients"
if grep -rnE '\b(InverseWorkers|SolveVecInto)\b' --include='*.go' --exclude-dir=.bench_build .; then
    echo "FAIL: the per-column inverse or the two-solve variance path is back" >&2
    exit 1
fi
inverters=$(grep -rlF '.Inverse()' --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build . | sort | tr '\n' ' ')
if [ "$inverters" != "./internal/gp/gp.go ./internal/lcm/lcm.go " ]; then
    echo "FAIL: Cholesky.Inverse is called in: $inverters" >&2
    exit 1
fi

# One batch rule, one prescreen path: constant liar spreads every batch
# (the session ledger and the serving tier share core.LieValue), and
# SearchNext scores its prescreen pool through PredictBatchInto only.
# Local penalization, its options and the acquisition-penalty hook stay
# deleted.
echo "== constant liar is the one batch rule; SearchNext has one prescreen path"
if grep -rnE 'BatchLocalPenalization|lpPenalty|LPRadius|BatchRadius|BatchStrategy|BatchConfig|penalize\(' \
    --include='*.go' --exclude-dir=.bench_build .; then
    echo "FAIL: local penalization or its batch options are back" >&2
    exit 1
fi
if awk '/^type SearchOptions struct/,/^}/' internal/core/search.go | grep -nE '^\s*Penalty\b'; then
    echo "FAIL: SearchOptions has a Penalty field again" >&2
    exit 1
fi
if ! grep -q '^func SearchNext(surr BatchPredictor,' internal/core/search.go; then
    echo "FAIL: SearchNext no longer takes a core.BatchPredictor" >&2
    exit 1
fi

# One loop, one model door, one problem builder: every tuning run goes
# through core.Session (the standalone multi-fidelity loop is deleted),
# every exact-GP fit outside the model packages through surrogate.New,
# "fit a GP, then Sobol' on its mean" is written once, and every
# experiment problem comes from apps.Build. A match below means a second
# path is back.
echo "== one tuning loop, one GP door, one Sobol' fit, one problem builder"
fits=$(grep -rlE 'gp\.Fit\b' --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=.bench_build . \
    | grep -vE '^\./internal/(surrogate|tla|sgp)/' || true)
if [ -n "$fits" ]; then
    echo "FAIL: gp.Fit called outside internal/{surrogate,tla,sgp}: $fits" >&2
    exit 1
fi
sobol=$(grep -rlF 'sensitivity.Analyze(' --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=.bench_build . | tr '\n' ' ')
if [ "$sobol" != "./internal/surrogate/surrogate.go " ]; then
    echo "FAIL: sensitivity.Analyze is called in: $sobol" >&2
    exit 1
fi
if grep -rnE '^package bandit|TuneMultiFidelity|EvaluateAtFidelity' --include='*.go' --exclude-dir=.bench_build .; then
    echo "FAIL: the deleted multi-fidelity bandit loop is back" >&2
    exit 1
fi
if grep -nE '(scalapack|nimrod|superlu|hypre)\.New\(' internal/experiments/*.go | grep -vE '_test\.go:|^internal/experiments/ablations\.go:'; then
    echo "FAIL: internal/experiments builds a problem outside apps.Build" >&2
    exit 1
fi

# One journal, one log set: what pairs a state machine with its log
# (open/replay/bind, fail-stop append, compaction, follower apply) lives
# in internal/replog, and every loop over a node's replicated logs in
# internal/cluster/logset.go. A machine package growing its own plumbing
# again, a swallowed append error, or a machine-name fork means a second
# copy is back.
echo "== journal plumbing has one owner (internal/replog), per-log loops one file (internal/cluster/logset.go)"
if grep -rnE 'func NelderMead|WaitAppend|LogError\(|WALError\(|name == "tasks"|func \([a-z]+ \*(Collection|Pool)\) (BindLog|ReplayLog|OpenLog|CompactLog)\(' \
    --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build .; then
    echo "FAIL: deleted journal plumbing, a swallowed journal error or a machine-name fork is back" >&2
    exit 1
fi
loops=$(grep -lE 'range [A-Za-z.]*\.rows|range logNames' internal/cluster/*.go | grep -v '_test\.go$' | tr '\n' ' ')
if [ "$loops" != "internal/cluster/logset.go " ]; then
    echo "FAIL: the replicated logs are iterated in: $loops" >&2
    exit 1
fi

# One crowd-worker path: a worker leases a task, runs it through a
# tuning session (Session.StepContext), uploads and completes. A
# Propose/Observe call in the worker means a private tuning loop is
# back; the eval-task fan-out (one task per batch proposal) stays
# deleted.
echo "== the worker drives no tuning loop of its own; the eval-task fan-out stays deleted"
if grep -rnE '\.Propose\(\)|\.Observe\(' --include='*.go' --exclude='*_test.go' internal/worker; then
    echo "FAIL: internal/worker calls Propose/Observe itself" >&2
    exit 1
fi
if grep -rnE 'KindEval|ReplaySchedule|CoordinatorOptions|runEvalTask' --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build .; then
    echo "FAIL: the deleted eval-task fan-out is back" >&2
    exit 1
fi

# What each public route is — path, methods, auth, read/write class,
# shard routing — is declared once, in crowd.Endpoints(). A path literal,
# a method check or a per-endpoint proxy handler anywhere else means a
# second copy of the table is back.
echo "== the public API is declared once (internal/crowd/endpoints.go)"
stray=$(grep -rn '"/api/v1/' --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=.bench_build . \
    | grep -v '^./internal/crowd/endpoints.go:' | grep -vE '"/api/v1/(cluster/|readyz)' || true)
if [ -n "$stray" ]; then
    echo "FAIL: public /api/v1 path spelled outside the endpoint table:" >&2
    echo "$stray" >&2
    exit 1
fi
methods=$(grep -rn 'r\.Method' --include='*.go' --exclude='*_test.go' internal/crowd internal/cluster \
    | grep -v '"method", r\.Method' || true) # the access log names it; only Guard decides on it
if [ "$(echo "$methods" | grep -c .)" -ne 1 ] || ! echo "$methods" | grep -q '^internal/crowd/endpoints.go:'; then
    echo "FAIL: r.Method is read outside Endpoint.Guard:" >&2
    echo "$methods" >&2
    exit 1
fi
if grep -rnE 'writePaths|gatedReads|routeByTaskID|func \(c \*Coordinator\) handle(Register|Upload|ModelUpload|Problems|TaskSubmit|TaskLease|TaskList|QuarantineList|QuarantineRelease)\(|func \(c \*Client\) (SubmitTask|LeaseTask|HeartbeatTask|CompleteTask|FailTask|ListTasks|UploadModels|QueryModels)\(' \
    --include='*.go' internal/crowd internal/cluster; then
    echo "FAIL: a deleted path map, per-endpoint proxy handler or context-less client twin is back" >&2
    exit 1
fi

# One typed reader on the query path: funcEvalOf reads each returned
# sample straight off the stored document. The JSON round trip through
# fromDocument[FuncEval] stays in the tests, as their reference.
echo "== fromDocument[FuncEval] stays out of non-test code"
if grep -rnF 'fromDocument[FuncEval]' --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build .; then
    echo "FAIL: a stored sample is decoded through the JSON round trip again" >&2
    exit 1
fi

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
fuzz_targets="
FuzzUploadDecode ./internal/crowd
FuzzValidateSample ./internal/crowd
FuzzQueryDecode ./internal/crowd
FuzzFuncEvalOf ./internal/crowd
FuzzRegisterDecode ./internal/crowd
FuzzTaskLeaseDecode ./internal/crowd
FuzzTaskCompleteDecode ./internal/crowd
FuzzTaskHeartbeatDecode ./internal/crowd
FuzzBatchObserve ./internal/core
FuzzUnmarshalQuery ./internal/historydb
FuzzReadJSONL ./internal/historydb
FuzzDeepCopy ./internal/historydb
FuzzParseSpackSpec ./internal/envparse
FuzzParseVersion ./internal/envparse
FuzzParseCKMeta ./internal/envparse
"
echo "$fuzz_targets" | while read -r target pkg; do
    [ -n "$target" ] || continue
    go test -run "^${target}\$" -fuzz "^${target}\$" -fuzztime=10s "$pkg"
done

echo "== coverage floor (crowd + cluster + historydb + taskpool + core + suggest + replog + shardring + chaos + copula + sgp + surrogate + tla >= 80%)"
go test -count=1 -cover ./internal/crowd ./internal/cluster ./internal/historydb ./internal/taskpool ./internal/core ./internal/suggest ./internal/replog ./internal/shardring ./internal/chaos ./internal/copula ./internal/sgp ./internal/surrogate ./internal/tla | tee /tmp/cover.txt
awk '
/coverage:/ {
    for (i = 1; i <= NF; i++) if ($i == "coverage:") pct = $(i+1) + 0
    if (pct < 80) { print "FAIL: " $2 " coverage " pct "% < 80%"; bad = 1 }
}
END { exit bad }' /tmp/cover.txt

echo "== bench smoke"
go test -run '^$' -bench 'Parallel|GPFit100|LCMFitTwoTasks|SaltelliSensitivity' \
    -benchtime 1x -benchmem .

echo "== repository read-path bench smoke (stores of 1k and 10k documents)"
go test -run '^$' -bench '^(BenchmarkUpload|BenchmarkQueryByProblem)$' \
    -benchtime 1x -benchmem ./internal/crowd

echo "== suggest hot-path allocation guard (<= ${SUGGEST_MAX_ALLOCS:=80} allocs/op)"
go test -run '^$' -bench '^BenchmarkSuggestHotPath$' -benchtime 200x -benchmem . \
    | tee /tmp/suggest_bench.txt
awk -v max="$SUGGEST_MAX_ALLOCS" '
/^BenchmarkSuggestHotPath/ {
    for (i = 1; i <= NF; i++) if ($(i) == "allocs/op") allocs = $(i-1) + 0
    found = 1
    if (allocs > max) { print "FAIL: suggest hot path " allocs " allocs/op > " max; bad = 1 }
}
END { if (!found) { print "FAIL: BenchmarkSuggestHotPath did not run"; bad = 1 } exit bad }' \
    /tmp/suggest_bench.txt

echo "== suggest batch allocation guard (<= ${SUGGEST_BATCH_MAX_ALLOCS:=1400} allocs/op)"
go test -run '^$' -bench '^BenchmarkSuggestBatchHotPath$' -benchtime 200x -benchmem . \
    | tee /tmp/suggest_batch_bench.txt
awk -v max="$SUGGEST_BATCH_MAX_ALLOCS" '
/^BenchmarkSuggestBatchHotPath/ {
    for (i = 1; i <= NF; i++) if ($(i) == "allocs/op") allocs = $(i-1) + 0
    found = 1
    if (allocs > max) { print "FAIL: suggest batch path " allocs " allocs/op > " max; bad = 1 }
}
END { if (!found) { print "FAIL: BenchmarkSuggestBatchHotPath did not run"; bad = 1 } exit bad }' \
    /tmp/suggest_batch_bench.txt

echo "CI gate passed."
