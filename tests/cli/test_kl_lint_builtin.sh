#!/usr/bin/env bash
# Pins the static analysis: runs `kl-lint --builtin` over every kernel
# definition shipped with the repo and diffs its report (stderr) against
# the checked-in golden file. It must exit 0 (no errors) and print the
# same diagnostics byte for byte; a change that moves a finding on
# purpose regenerates the golden file in the same commit and says why.
#
# Usage: test_kl_lint_builtin.sh <kl-lint-binary> <golden-file>
set -u

KL_LINT=$1
GOLDEN=$2

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

if ! "$KL_LINT" --builtin > "$tmp/out.txt" 2>&1; then
    cat "$tmp/out.txt" >&2
    echo "FAIL: kl-lint --builtin exited non-zero" >&2
    exit 1
fi
if ! diff -u "$GOLDEN" "$tmp/out.txt"; then
    echo "FAIL: kl-lint --builtin differs from $GOLDEN" >&2
    exit 1
fi
echo "kl-lint --builtin: identical to $GOLDEN"
