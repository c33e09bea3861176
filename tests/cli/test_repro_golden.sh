#!/usr/bin/env bash
# Pins the reproduction: runs each bench at its default arguments and
# diffs its stdout against the checked-in bench/golden/<bench>.txt. These
# benches print only model-clock numbers, a pure function of the seed, so
# any difference means a modeled number moved. A change that moves one on
# purpose regenerates the golden file in the same commit and says why; a
# refactor never does.
#
# Usage: test_repro_golden.sh <golden-dir> <bench-binary>...
set -u

GOLDEN=$1
shift

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

status=0
for bench in "$@"; do
    name=$(basename "$bench")
    expected="$GOLDEN/$name.txt"
    if [ ! -f "$expected" ]; then
        echo "FAIL: $name has no golden file $expected" >&2
        status=1
        continue
    fi
    if ! "$bench" > "$tmp/$name.txt"; then
        echo "FAIL: $name exited non-zero" >&2
        status=1
        continue
    fi
    if diff -u "$expected" "$tmp/$name.txt"; then
        echo "$name: identical to $expected"
    else
        echo "FAIL: $name differs from $expected" >&2
        status=1
    fi
done
[ $status -eq 0 ] && echo "repro golden OK"
exit $status
