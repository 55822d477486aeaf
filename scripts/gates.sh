#!/usr/bin/env bash
# Architecture gates: each row keeps one design decision in force, under the
# commit that made it; a failure names the commit. gates_test.go runs this
# (GNU grep -P needed). Patterns are PCRE; columns are split by 2+ spaces:
#   == <commit>  <decision>             the rows below belong to it
#   gone  <scope>  <words>              none appears as an identifier (a.b literal, * any \w)
#   gone  <scope>  <regex>  <witness>   no line matches; the witness must match
#   only-in  <scope>  <regex>  <files>  exactly these files match (file:N: N lines)
#   present  <files>  <regex>           each file, comma-separated, has a matching line
#   fields  <file>:<Type>  <names>      the struct's field names, sorted
# Scope: src (no _test.go) or all, then :path,... to search there, or :!dir to skip.
set -o pipefail
cd "$(dirname "$0")/.."

table() {
    sed -E '/^$/d; s/ {2,}/\t/g' <<'ROWS'
== 61afc2e  the serving tier reaches every model through core.Surrogate
gone  src:internal/suggest  "[^"]*internal/(gp|sgp|copula|lcm)"  "gptunecrowd/internal/gp"

== 776507e  one propose step, one selector
gone  all  type (Ensemble|Fixed)\b  type Fixed struct
gone  all  MultitaskTS NewFixed NewEnsemble equalWeightFirstEval

== f97ed68  NoTLA is a row of the tuner table; internal/core holds no model
only-in  src  func \([^)]*\) Propose\(ctx \*(core\.)?ProposeContext\)  internal/surrogate/pool.go
gone  src:internal/core  "[^"]*internal/(gp|sgp|copula|lcm|tla|surrogate)"  "gptunecrowd/internal/surrogate"
gone  all  GPTuner NewGPTuner FixedNoise ProbeInterval

== 1553f5c  one row-contiguous inverse, forward-only predictive variance
gone  all  InverseWorkers SolveVecInto
only-in  src  \.Inverse\(\)  internal/gp/gp.go internal/lcm/lcm.go

== 5c85163  constant liar is the one batch rule; SearchNext has one prescreen path
gone  all  *BatchLocalPenalization* *lpPenalty* *LPRadius* *BatchRadius* *BatchStrategy* *BatchConfig* *penalize
present  internal/core/search.go  ^func SearchNext\(surr BatchPredictor,

== 9f1b51c  GPTUNE_WORKERS is the one parallelism knob
fields  internal/gp/gp.go:Options  Categorical Kernel MaxIter Restarts Seed
fields  internal/lcm/lcm.go:Options  Categorical Kernel MaxIter Q Restarts Seed
fields  internal/sgp/sgp.go:Options  Categorical HyperSubsample Kernel MaxInducing MaxIter Restarts Seed
gone  all  MatMulWorkers parallel.Resolve
present  internal/optimize/multistart.go  ^func MultiStartParallel\(starts \[\]\[\]float64, minimize func

== b82b52a  every option has a caller outside tests (LBFGSConfig's four wait on the layout fix)
fields  internal/suggest/suggest.go:Config  Logger Registry Seed
fields  internal/sensitivity/sobol.go:Options  N NBoot Seed
fields  internal/optimize/lbfgs.go:LBFGSConfig  InitStep MaxIter Memory TolF TolGrad
fields  internal/optimize/de.go:DEConfig  Lower MaxGen RandSrc Seeds Upper
fields  internal/core/search.go:SearchOptions  Candidates DEGens Feasible
gone  all  SuggestRefitEvery SuggestMaxStale copula.Options DedupTol DEPop StartSpan EnsureTrace NewSpanID WithTraceAttrs obs.Span
gone  all:internal/copula  ^type Options\b  type Options struct

== b82b52a  bench/probes.go searches as the suggest service does: both sides change together
present  internal/suggest/suggest.go,bench/probes.go  ^\s*(serveC|c)andidates\s*= 128\b
present  internal/suggest/suggest.go,bench/probes.go  ^\s*(serveDEG|deG)ens\s*= 12\b
present  internal/gp/gp.go,bench/probes.go  ^\s*(serveRestarts|opts\.Restarts)\s*= 2$

== 0120f3f  one tuning loop, one GP door, one Sobol' fit, one problem builder
only-in  src:!bench  gp\.Fit\b  internal/sgp/sgp.go internal/surrogate/surrogate.go internal/tla/model.go internal/tla/source.go internal/tla/stacking.go
only-in  src:!bench  sensitivity\.Analyze\(  internal/surrogate/surrogate.go
gone  all  ^package bandit  package bandit
gone  all  *TuneMultiFidelity* *EvaluateAtFidelity*
only-in  src:internal/experiments  (scalapack|nimrod|superlu|hypre)\.New\(  internal/experiments/ablations.go

== 23c33d2  journal plumbing has one owner (internal/replog), per-log loops one file
gone  src  NelderMead* *WaitAppend* *LogError *WALError
gone  src  name == "tasks"  if name == "tasks" {
gone  src  func \([a-z]+ \*(Collection|Pool)\) (BindLog|ReplayLog|OpenLog|CompactLog)\(  func (c *Collection) BindLog(
only-in  src:internal/cluster  range [A-Za-z.]*\.rows|range logNames  internal/cluster/logset.go

== 711dd0d  the worker drives no tuning loop of its own; no eval-task fan-out
gone  src:internal/worker  \.Propose\(\)|\.Observe\(  s.Observe(
gone  src  *KindEval* *ReplaySchedule* *CoordinatorOptions* *runEvalTask*

== 3177b34  the public API is declared once, in crowd.Endpoints()
only-in  src:!bench  "/api/v1/(?!cluster/|readyz)  internal/crowd/endpoints.go
only-in  src:internal/crowd,internal/cluster  (?<!"method", )r\.Method  internal/crowd/endpoints.go:1
gone  all:internal/crowd,internal/cluster  *writePaths* *gatedReads* *routeByTaskID*
gone  all:internal/crowd,internal/cluster  func \(c \*Coordinator\) handle(Register|Upload|ModelUpload|Problems|TaskSubmit|TaskLease|TaskList|QuarantineList|QuarantineRelease)\(  func (c *Coordinator) handleUpload(
gone  all  SubmitTask LeaseTask HeartbeatTask CompleteTask FailTask ListTasks UploadModels QueryModels

== dccd676  stored samples are read by funcEvalOf, not a JSON round trip
gone  src  fromDocument\[FuncEval\]  fromDocument[FuncEval](doc)

== after 15987a2  one benchmark system (bench/); arm fit costs live beside the UCB rule, their one reader
gone  all  transferbench BENCH_transfer
only-in  all  \bCost\(n int\)|\barmCost\(  internal/surrogate/select.go internal/surrogate/pool.go internal/surrogate/surrogate_test.go

== after ac4043e  ℓ and σ² are exp'd once per kernel call (the length-scale helper and Diag), never per pair
only-in  src  math\.Exp\(h\.Log(Length|Var)  internal/kernel/kernel.go:2
gone  all  func \(k \*Kernel\) Eval(Grad)?\(  func (k *Kernel) EvalGrad(

== after afa0206  fits read K and the length-scale factors and never build dK; parallel.For is the one fan-out
gone  all  ForEachWorker gradScratch MatrixGradsInto dKs baseG
only-in  src:!bench  MatrixGradsWorkers\(  internal/kernel/kernel.go

== after b7fe3cf  one form per verb, taking a context; the context-less forms left are the ones bench/ calls
gone  all  (func |\.)(TuneBatch|QueryFunctionEvaluations|UploadHistory|UploadSurrogateModel|DownloadSurrogateModel|QuerySurrogateModel(Opts)?|QueryPredictOutput|QuerySensitivityAnalysis|Connect(Meta)?)\(  gptunecrowd.Connect(url, key)
gone  all:!bench  func \(s \*(Session|TuningSession)\) (Propose|ProposeBatch|Run)\(|func \(s \*Session\) Step\(|\.ProposeBatch\(|\.Propose\(\)|(?<!\bm)\.Run\(\)|\.Step\(\)  func (s *Session) Run() (*History, error) {
only-in  src:!bench  \.(Register|Upload|Query|QueryWithParamFilter|Problems)\(  internal/crowd/client.go:1
fields  crowdapi.go:SurrogateOptions  Kernel Seed

== after 231989e  every public read goes to the shard leader; followers replicate, stand by and bounce reads as writes
gone  all  freshEnough StalenessWindow DefaultStalenessWindow readFromShard ClassFreshRead staleRejects staleReads maxLag lastContact stale_replica
gone  all  func \(s \*logSet\) lagging\(  func (s *logSet) lagging(
gone  src  "cluster_stale_reads_total"  "cluster_stale_reads_total"

== after 80bd823  func_evals keys each sample's task once, at insert; a suggest miss walks its (problem, task) sub-bucket
only-in  src  \bTaskKey\(  internal/suggest/suggest.go internal/crowd/suggest_api.go:2
ROWS
}

search() { # scope grep-args...: grep -r over the scope's Go files
    local scope=$1 opts=(-r --include='*.go' --exclude-dir=.bench_build) paths=() p && shift
    [ "${scope%%:*}" = src ] && opts+=(--exclude='*_test.go')
    [[ $scope == *:* ]] && for p in $(tr , ' ' <<<"${scope#*:}"); do
        if [[ $p == !* ]]; then opts+=(--exclude-dir="${p#!}"); else paths+=("$p"); fi
    done
    grep "${opts[@]}" "$@" "${paths[@]}"
}

failed=0 rows=0
fail() { # lines: one FAIL per line, under the current decision
    while IFS= read -r line; do echo "FAIL ($commit, $why): $line"; done <<<"$1"
    failed=1
}

while IFS=$'\t' read -r -u 3 kind a b c; do
    case $kind in
    '== '*) commit=${kind#== } why=$a && continue ;;
    gone)
        pat=$b
        [ -n "$c" ] || { pat=${b//./\\.} && pat=${pat//\*/\\w*} && pat="\\b(${pat// /|})\\b"; }
        [ -z "$c" ] || grep -qP -- "$pat" <<<"$c" || fail "$pat does not match its witness: $c"
        hits=$(search "$a" -noP -- "$pat") || [ $? -lt 2 ] || fail "cannot search $a for $pat"
        [ -z "$hits" ] || fail "$(sed -E 's/^([^:]+:[0-9]+):(.*)$/\2 found in \1/' <<<"$hits")" ;;
    only-in)
        got=$(search "$a" -cP -- "$b" | awk -F: -v want=" $c " '$NF > 0 { print index(want, " " $1 " ") ? $1 : $1 ":" $NF }' |
            sort | xargs) || [ $? -lt 2 ] || fail "cannot search $a for $b"
        [ "$got" = "$(xargs -n1 <<<"$c" | sort | xargs)" ] || fail "$b matches in [$got], want exactly [$c]" ;;
    present) for p in ${a//,/ }; do grep -qP -- "$b" "$p" || fail "no line of $p matches $b"; done ;;
    fields)
        got=$(awk "/^type ${a#*:} struct/,/^}/" "${a%%:*}" | sed -e 's://.*$::' -e '1d;$d' |
            grep -oE '^\s+[A-Za-z_][A-Za-z0-9_]*(\s*,\s*[A-Za-z_][A-Za-z0-9_]*)*\s' | tr , ' ' | xargs -n1 | sort | xargs)
        [ "$got" = "$b" ] || fail "${a#*:} in ${a%%:*} has fields [$got], want [$b]" ;;
    *) fail "unknown row kind: $kind" ;;
    esac
    rows=$((rows + 1))
done 3< <(table)

[ "$failed" = 0 ] && echo "architecture gates: $rows rows hold"
exit "$failed"
