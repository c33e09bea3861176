#!/usr/bin/env bash
# End-to-end smoke test for kl-lint's graph mode and JSON output: runs the
# KL006-KL009 data-flow analysis over the checked-in fixture DAGs (one
# dependency-complete, one with a seeded missing edge) and checks exit
# codes, key findings, and the --format=json schema; then checks that the
# hostile descriptions of hostile_graphs.sh are rejected quickly.
#
# Usage: test_kl_lint.sh <kl-lint-binary> <fixtures-dir>
set -u

KL_LINT=$1
FIXTURES=$2

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

# --- clean DAG: no findings, even under --strict -------------------------
"$KL_LINT" --graph --strict "$FIXTURES/graph_clean.json" > /dev/null 2> "$tmp/clean.err" \
    || fail "clean graph should exit 0 under --strict"
grep -q "0 error(s), 0 warning(s), 0 note(s)" "$tmp/clean.err" \
    || fail "clean graph summary should report zero findings"

# --- seeded-hazard DAG: KL006 findings, exit 1 ---------------------------
"$KL_LINT" --graph "$FIXTURES/graph_hazard.json" > /dev/null 2> "$tmp/hazard.err"
[ $? -eq 1 ] || fail "hazard graph should exit 1"
grep -q "KL006" "$tmp/hazard.err" || fail "hazard graph should report KL006"
grep -q "no dependency path" "$tmp/hazard.err" \
    || fail "KL006 message should explain the missing dependency path"

# --- JSON output: stable schema on stdout, nothing on stderr -------------
"$KL_LINT" --graph --format=json "$FIXTURES/graph_hazard.json" \
    > "$tmp/hazard.json" 2> "$tmp/hazard_json.err"
[ $? -eq 1 ] || fail "hazard graph (json) should exit 1"
[ -s "$tmp/hazard.json" ] || fail "json output should go to stdout"
[ -s "$tmp/hazard_json.err" ] && fail "json mode should not print findings to stderr"
for key in '"diagnostics"' '"code"' '"severity"' '"kernel"' '"message"' \
    '"summary"' '"errors"' '"nodes"'; do
    grep -q "$key" "$tmp/hazard.json" || fail "json output missing $key"
done
grep -q '"KL006"' "$tmp/hazard.json" || fail "json output missing KL006 code"

# --- determinism: two runs produce byte-identical reports ----------------
"$KL_LINT" --graph --format=json "$FIXTURES/graph_hazard.json" > "$tmp/hazard2.json" 2>&1
cmp -s "$tmp/hazard.json" "$tmp/hazard2.json" \
    || fail "json report should be byte-identical across runs"

# --- kernel mode still works with --format=json --------------------------
"$KL_LINT" --builtin --format=json > "$tmp/builtin.json" \
    || fail "--builtin --format=json exited non-zero"
grep -q '"definitions"' "$tmp/builtin.json" \
    || fail "builtin json output missing definitions count"

# --- error paths ---------------------------------------------------------
"$KL_LINT" --graph "$tmp/does-not-exist.json" > /dev/null 2>&1
[ $? -eq 2 ] || fail "missing graph file should exit 2"

echo '{"nodes": [{"kind": "teleport"}]}' > "$tmp/bad.json"
"$KL_LINT" --graph "$tmp/bad.json" > /dev/null 2>&1
[ $? -eq 2 ] || fail "unknown node kind should exit 2"

"$KL_LINT" --graph --builtin > /dev/null 2>&1
[ $? -eq 2 ] || fail "--graph with --builtin should exit 2"

"$KL_LINT" --format=yaml --builtin > /dev/null 2>&1
[ $? -eq 2 ] || fail "unknown format should exit 2"

# --- hostile descriptions: each a clean exit-2 error, within seconds -----
bash "$(dirname "$0")/hostile_graphs.sh" "$tmp" || fail "could not write hostile graphs"
for name in negative_size wrapping_sizes long_chain; do
    timeout 10 "$KL_LINT" --graph --strict "$tmp/$name.json" > /dev/null 2> "$tmp/$name.err"
    status=$?
    [ $status -eq 2 ] || fail "$name.json should exit 2 (got $status)"
    grep -q "^kl-lint: .*$name.json" "$tmp/$name.err" \
        || fail "$name.json should be rejected with an error naming the file"
done

echo "kl-lint smoke OK"
