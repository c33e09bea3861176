#!/usr/bin/env bash
# Full verification matrix: build and run the whole ctest suite four
# ways — the default build, a ThreadSanitizer build (-DKL_SANITIZE=thread),
# an AddressSanitizer+UBSan build (-DKL_SANITIZE=address) and a Release
# build (-DCMAKE_BUILD_TYPE=Release, the optimization level perfbench
# measures, where lint_werror sees -O3 warnings) — plus a
# lint-graphs stage that runs `kl-lint --graph --strict` over the
# checked-in fixture DAGs (the dependency-complete one must pass, the
# seeded-hazard one must fail with KL006), a mem-stress stage that
# reruns the randomized allocator suite (docs/MEMORY.md) at 10x its
# default seed counts via KERNEL_LAUNCHER_MEM_STRESS_SEEDS, and a
# distributed stage that boots kl-wisdomd on an ephemeral port and proves
# a fresh process warms its compile cache over the network with zero
# NVRTC compiles (docs/DISTRIBUTED.md).
#
# Usage:  scripts/check.sh [default|thread|address|release|lint-graphs|mem-stress|distributed]...
#         (no arguments runs all of them)
#
# Each variant configures into its own build directory (build-check-NAME)
# so the matrix never disturbs an existing build/ tree. Exits non-zero on
# the first failing variant.
set -u

repo=$(cd "$(dirname "$0")/.." && pwd)
jobs=${JOBS:-$(getconf _NPROCESSORS_ONLN 2> /dev/null || nproc 2> /dev/null || echo 4)}

variants=("$@")
if [ ${#variants[@]} -eq 0 ]; then
    variants=(default thread address release lint-graphs mem-stress distributed)
fi

# Static data-flow analysis over the fixture DAGs: one graph is
# dependency-complete and must come back clean even under --strict; the
# other has a seeded missing edge and must fail with KL006.
run_lint_graphs() {
    local dir="$repo/build-check-lint-graphs"
    local fixtures="$repo/tests/cli/fixtures"

    echo "=== [lint-graphs] build kl-lint ==="
    cmake -B "$dir" -S "$repo" || return 1
    cmake --build "$dir" -j "$jobs" --target kl-lint || return 1

    echo "=== [lint-graphs] clean DAG (must pass --strict) ==="
    "$dir/tools/kl-lint" --graph --strict "$fixtures/graph_clean.json" || {
        echo "check.sh: clean fixture DAG unexpectedly failed lint" >&2
        return 1
    }

    echo "=== [lint-graphs] seeded-hazard DAG (must fail) ==="
    if "$dir/tools/kl-lint" --graph --strict "$fixtures/graph_hazard.json"; then
        echo "check.sh: seeded-hazard fixture DAG unexpectedly passed lint" >&2
        return 1
    fi
    echo "check.sh: lint-graphs stage passed"
}

# The randomized allocator stress suite at 10x its default seed counts:
# 1000+ schedules through the stream-ordered pool, each cross-checked
# against the AllocOracle reference model (docs/MEMORY.md).
run_mem_stress() {
    local dir="$repo/build-check-mem-stress"

    echo "=== [mem-stress] build test_async_memory ==="
    cmake -B "$dir" -S "$repo" || return 1
    cmake --build "$dir" -j "$jobs" --target test_async_memory || return 1

    echo "=== [mem-stress] 10x seeds ==="
    KERNEL_LAUNCHER_MEM_STRESS_SEEDS=10 "$dir/tests/test_async_memory" || {
        echo "check.sh: randomized allocator stress suite failed at 10x seeds" >&2
        return 1
    }
    echo "check.sh: mem-stress stage passed"
}

# Multi-process warm-up smoke over a real TCP daemon: kl-wisdomd on an
# ephemeral port, one process tunes and publishes, a second (fresh wisdom
# dir, fresh cache dir) must first-launch with zero NVRTC compiles. The
# same flow the cli_kl_wisdomd ctest runs, but from the operator's
# perspective: the shipped binaries and env vars only.
run_distributed() {
    local dir="$repo/build-check-distributed"
    local tmp
    tmp=$(mktemp -d) || return 1
    local daemon_pid=""

    echo "=== [distributed] build kl-wisdomd, kl-cache, quickstart ==="
    cmake -B "$dir" -S "$repo" || return 1
    cmake --build "$dir" -j "$jobs" --target kl-wisdomd kl-cache quickstart || return 1

    cleanup_distributed() {
        if [ -n "$daemon_pid" ] && kill -0 "$daemon_pid" 2> /dev/null; then
            kill -TERM "$daemon_pid" 2> /dev/null
            wait "$daemon_pid" 2> /dev/null
        fi
        rm -rf "$tmp"
    }

    echo "=== [distributed] start kl-wisdomd on an ephemeral port ==="
    "$dir/tools/kl-wisdomd" --port-file "$tmp/port" --dir "$tmp/artifacts" \
        > "$tmp/daemon.out" 2> "$tmp/daemon.err" &
    daemon_pid=$!
    for _ in $(seq 50); do
        [ -s "$tmp/port" ] && break
        sleep 0.1
    done
    if [ ! -s "$tmp/port" ]; then
        echo "check.sh: kl-wisdomd never wrote its port file" >&2
        cleanup_distributed
        return 1
    fi
    local server
    server="127.0.0.1:$(cat "$tmp/port")"

    echo "=== [distributed] node 1: tune + compile + publish ==="
    KERNEL_LAUNCHER_WISDOM_SERVER="$server" \
        KERNEL_LAUNCHER_CACHE=readwrite KERNEL_LAUNCHER_CACHE_DIR="$tmp/cache1" \
        "$dir/examples/quickstart" > "$tmp/node1.out" || {
        echo "check.sh: quickstart on node 1 failed" >&2
        cleanup_distributed
        return 1
    }

    echo "=== [distributed] node 2: must warm over the network ==="
    KERNEL_LAUNCHER_WISDOM_SERVER="$server" \
        KERNEL_LAUNCHER_CACHE=readwrite KERNEL_LAUNCHER_CACHE_DIR="$tmp/cache2" \
        "$dir/examples/quickstart" > "$tmp/node2.out" || {
        echo "check.sh: quickstart on node 2 failed" >&2
        cleanup_distributed
        return 1
    }
    if ! grep -q "compile 0 ms" "$tmp/node2.out"; then
        echo "check.sh: node 2 compiled instead of fetching:" >&2
        head -1 "$tmp/node2.out" >&2
        cleanup_distributed
        return 1
    fi
    "$dir/tools/kl-cache" --remote "$server" stats | grep -Eq "\"artifact-get\": [1-9]" || {
        echo "check.sh: daemon never served an artifact" >&2
        cleanup_distributed
        return 1
    }

    cleanup_distributed
    daemon_pid=""
    echo "check.sh: distributed stage passed"
}

run_variant() {
    local name=$1
    local dir="$repo/build-check-$name"
    local -a config=()
    case "$name" in
        default) ;;
        thread) config=(-DKL_SANITIZE=thread) ;;
        address) config=(-DKL_SANITIZE=address) ;;
        release) config=(-DCMAKE_BUILD_TYPE=Release) ;;
        lint-graphs) run_lint_graphs; return $? ;;
        mem-stress) run_mem_stress; return $? ;;
        distributed) run_distributed; return $? ;;
        *)
            echo "check.sh: unknown variant '$name' (want default|thread|address|release|lint-graphs|mem-stress|distributed)" >&2
            return 2
            ;;
    esac

    echo "=== [$name] configure ==="
    cmake -B "$dir" -S "$repo" "${config[@]}" || return 1
    echo "=== [$name] build ==="
    cmake --build "$dir" -j "$jobs" || return 1
    echo "=== [$name] ctest ==="
    (cd "$dir" && ctest --output-on-failure -j "$jobs") || return 1
}

for v in "${variants[@]}"; do
    run_variant "$v" || {
        echo "check.sh: variant '$v' FAILED" >&2
        exit 1
    }
done

echo "check.sh: all variants passed (${variants[*]})"
