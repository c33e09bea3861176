#!/usr/bin/env bash
# Smoke test for the perfbench harness built against the in-tree
# libraries: runs the steady_timestep and graph_timestep workloads for one
# second each on the held-out seed and requires every run's JSON result
# line (the last line of stdout) to report zero failed operations.
#
# Usage: test_perfbench_smoke.sh <perfbench-binary> <work-dir>
set -u

PERFBENCH=$1
WORK=$2

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

for workload in steady_timestep graph_timestep; do
    out=$("$PERFBENCH" --workload "$workload" --seed 20231 --seconds 1 --trace 0 \
        --work-dir "$WORK/$workload") || fail "$workload exited non-zero"
    result=$(printf '%s\n' "$out" | tail -n 1)
    echo "$workload: $result"
    printf '%s\n' "$result" | grep -Eq '"failed": ?0[,}]' \
        || fail "$workload reported failed operations or no result line"
done
echo "perfbench smoke OK"
