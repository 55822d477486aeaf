#!/usr/bin/env bash
# metrics-lint: keep the README Observability table and the metric
# families registered in the source in sync, both directions. Fails when
# a registered family is undocumented or a documented family no longer
# exists in code.
set -euo pipefail
cd "$(dirname "$0")/.."

pattern='"(crowd|taskpool|quarantine|reputation|worker|tuner|suggest|batch|cluster|replog|chaos|surrogate)_[a-z_]+"'

# Registered families: metric-name string literals in non-test sources,
# excluding struct/json tag lines (e.g. `json:"worker_faults"`), the
# surrogate_models historydb collection (a store name, not a metric) and
# the batch_id request field the coordinator rewrites (a wire key).
registered=$(grep -rhE "$pattern" --include='*.go' --exclude='*_test.go' internal cmd ./*.go \
    | grep -v 'json:' \
    | grep -v '"surrogate_models"' \
    | grep -v '"batch_id"' \
    | grep -oE "$pattern" | tr -d '"' | sort -u)

# Documented families: first backticked cell of each README table row.
documented=$(grep -oE '^\| `[a-z_]+`' README.md | grep -oE '[a-z_]+' | sort -u)

status=0
undocumented=$(comm -23 <(echo "$registered") <(echo "$documented"))
if [ -n "$undocumented" ]; then
    echo "FAIL: metric families registered in code but missing from the README table:" >&2
    echo "$undocumented" >&2
    status=1
fi
stale=$(comm -13 <(echo "$registered") <(echo "$documented"))
if [ -n "$stale" ]; then
    echo "FAIL: metric families documented in README but not registered in code:" >&2
    echo "$stale" >&2
    status=1
fi
[ "$status" -eq 0 ] && echo "metrics-lint: $(echo "$registered" | wc -l) families in sync."
exit "$status"
