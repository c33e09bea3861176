#!/usr/bin/env bash
# End-to-end smoke test for the kl-cache CLI: populates a real compile
# cache by running the quickstart example with KERNEL_LAUNCHER_CACHE
# enabled, then checks every subcommand's exit code and key output lines.
#
# Usage: test_kl_cache.sh <kl-cache-binary> <quickstart-binary>
set -u

KL_CACHE=$1
QUICKSTART=$2

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cache="$tmp/cache"

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

# --- fixture: populate the cache through the public env knobs ------------
KERNEL_LAUNCHER_CACHE=readwrite KERNEL_LAUNCHER_CACHE_DIR="$cache" \
    "$QUICKSTART" > /dev/null || fail "quickstart (cache readwrite) failed"
ls "$cache"/klc-*.json > /dev/null 2>&1 || fail "no cache entries were written"

# --- stats (also the default command) ------------------------------------
out=$("$KL_CACHE" --dir "$cache" stats) || fail "stats exited non-zero"
echo "$out" | grep -q "directory:" || fail "stats missing directory line"
echo "$out" | grep -Eq "entries: +[1-9]" || fail "stats shows zero entries"
echo "$out" | grep -Eq "quarantined: +0" || fail "stats shows quarantined entries"

out=$("$KL_CACHE" --dir "$cache") || fail "default command exited non-zero"
echo "$out" | grep -Eq "entries: +[1-9]" || fail "default command is not stats"

# --- ls ------------------------------------------------------------------
out=$("$KL_CACHE" --dir "$cache" ls) || fail "ls exited non-zero"
echo "$out" | grep -q "klc-" || fail "ls missing entry ids"
echo "$out" | grep -q "vector_add" || fail "ls missing kernel name"

# --- verify on a healthy cache -------------------------------------------
out=$("$KL_CACHE" --dir "$cache" verify) || fail "verify (healthy) exited non-zero"
echo "$out" | grep -q "0 damaged" || fail "healthy verify reported damage"

# --- byte limits that overflow 64 bits are rejected, never wrapped -------
out=$("$KL_CACHE" --dir "$cache" prune 17179869184G 2>&1)
[ $? -eq 1 ] || fail "prune with a wrapping limit should exit 1"
echo "$out" | grep -q "17179869184G" || fail "prune error does not name the value"
echo "$out" | grep -q "KERNEL_LAUNCHER_CACHE_LIMIT" && fail "prune error names the environment variable"
out=$("$KL_CACHE" --dir "$cache" stats) || fail "stats after rejected prune exited non-zero"
echo "$out" | grep -Eq "entries: +[1-9]" || fail "rejected prune evicted entries"
out=$(KERNEL_LAUNCHER_CACHE_LIMIT=99999999999999999999999 "$KL_CACHE" --dir "$cache" stats 2>&1)
[ $? -eq 1 ] || fail "an overflowing KERNEL_LAUNCHER_CACHE_LIMIT should exit 1"
echo "$out" | grep -q "99999999999999999999999" || fail "limit error does not name the value"
echo "$out" | grep -q "KERNEL_LAUNCHER_CACHE_LIMIT" || fail "limit error does not name the variable"

# --- verify after corrupting one entry -----------------------------------
first=$(ls "$cache"/klc-*.json | head -1)
echo "not json" > "$first"
out=$("$KL_CACHE" --dir "$cache" verify)
[ $? -eq 1 ] || fail "verify on a damaged cache should exit 1"
echo "$out" | grep -q "DAMAGED" || fail "verify missing DAMAGED line"

# --- clear ---------------------------------------------------------------
out=$("$KL_CACHE" --dir "$cache" clear) || fail "clear exited non-zero"
echo "$out" | grep -q "removed" || fail "clear missing removed line"
out=$("$KL_CACHE" --dir "$cache" stats) || fail "stats after clear exited non-zero"
echo "$out" | grep -Eq "entries: +0" || fail "clear left entries behind"

# --- error paths ---------------------------------------------------------
"$KL_CACHE" --dir "$cache" no-such-command > /dev/null 2>&1
[ $? -eq 2 ] || fail "unknown command should exit 2"

"$KL_CACHE" --no-such-option > /dev/null 2>&1
[ $? -eq 2 ] || fail "unknown option should exit 2"

echo "kl-cache smoke OK"
