#!/usr/bin/env bash
# Full verification matrix: build and run the whole ctest suite four
# ways — the default build, a ThreadSanitizer build (-DKL_SANITIZE=thread),
# an AddressSanitizer+UBSan build (-DKL_SANITIZE=address) and a Release
# build (-DCMAKE_BUILD_TYPE=Release, the optimization level perfbench
# measures, where lint_werror sees -O3 warnings) — plus a
# lint-graphs stage that runs `kl-lint --graph --strict` over the
# checked-in fixture DAGs (the dependency-complete one must pass, the
# seeded-hazard one must fail with KL006) and over the hostile
# descriptions of tests/cli/hostile_graphs.sh (each must exit 2 within
# 10 s), a mem-stress stage that
# reruns the randomized allocator suite (docs/MEMORY.md) at 10x its
# default seed counts via KERNEL_LAUNCHER_MEM_STRESS_SEEDS, and a
# distributed stage that boots kl-wisdomd on an ephemeral port, proves
# a fresh process warms its compile cache over the network with zero
# NVRTC compiles, and that 64 stalled hostile peers cost the daemon no
# memory and do not delay its shutdown (docs/DISTRIBUTED.md), and a
# deadcode stage that fails when a src/ function is reachable from no
# product binary (tool, example, bench or perfbench).
#
# Usage:  scripts/check.sh [default|thread|address|release|lint-graphs|mem-stress|distributed|deadcode]...
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
    variants=(default thread address release lint-graphs mem-stress distributed deadcode)
fi

# Static data-flow analysis over the fixture DAGs: one graph is
# dependency-complete and must come back clean even under --strict; the
# other has a seeded missing edge and must fail with KL006. Hostile
# descriptions (bad buffer sizes, too many nodes) must be input errors.
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

    echo "=== [lint-graphs] hostile descriptions (must exit 2 within 10 s) ==="
    local tmp status
    tmp=$(mktemp -d) || return 1
    bash "$repo/tests/cli/hostile_graphs.sh" "$tmp" || { rm -rf "$tmp"; return 1; }
    for name in negative_size wrapping_sizes long_chain; do
        timeout 10 "$dir/tools/kl-lint" --graph --strict "$tmp/$name.json"
        status=$?
        if [ $status -ne 2 ]; then
            echo "check.sh: hostile $name.json exited $status, want 2" >&2
            rm -rf "$tmp"
            return 1
        fi
    done
    rm -rf "$tmp"
    echo "check.sh: lint-graphs stage passed"
}

# The randomized allocator stress suite at 10x its default seed counts:
# 1000+ schedules through the stream-ordered pool, each cross-checked
# against the AllocOracle reference model in the same test file
# (docs/MEMORY.md).
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
# perspective: the shipped binaries and env vars only. Then 64 hostile
# peers each send a header announcing 64 MiB and stall: the daemon's RSS
# must stay under 64 MB, it must still answer stats, and SIGTERM must end
# it with exit 0 within 1 s while they are attached.
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
    TMPDIR="$tmp" KERNEL_LAUNCHER_WISDOM_SERVER="$server" \
        KERNEL_LAUNCHER_CACHE=readwrite KERNEL_LAUNCHER_CACHE_DIR="$tmp/cache1" \
        "$dir/examples/quickstart" > "$tmp/node1.out" || {
        echo "check.sh: quickstart on node 1 failed" >&2
        cleanup_distributed
        return 1
    }

    echo "=== [distributed] node 2: must warm over the network ==="
    TMPDIR="$tmp" KERNEL_LAUNCHER_WISDOM_SERVER="$server" \
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

    echo "=== [distributed] hostile peers: 64 stalled 64 MiB headers ==="
    local -a peers=()
    local fd
    for _ in $(seq 64); do
        exec {fd}<> "/dev/tcp/127.0.0.1/${server##*:}" || break
        peers+=("$fd")
        # magic, version 1, type ping, reserved 0, length 0x04000000 (LE)
        printf 'KLWP\x01\x01\x00\x00\x00\x00\x00\x04' >&"$fd"
    done
    sleep 0.5
    local rss_kb
    rss_kb=$(awk '/^VmRSS:/ {print $2}' "/proc/$daemon_pid/status")
    local hostile_ok=1
    if [ "${#peers[@]}" -ne 64 ] || [ -z "$rss_kb" ] || [ "$rss_kb" -ge 65536 ]; then
        echo "check.sh: ${#peers[@]} stalled peers left kl-wisdomd at ${rss_kb:-?} kB RSS" >&2
        hostile_ok=0
    fi
    "$dir/tools/kl-cache" --remote "$server" stats > /dev/null || {
        echo "check.sh: kl-wisdomd did not answer stats beside the stalled peers" >&2
        hostile_ok=0
    }
    # SIGTERM with the peers still attached: a clean exit within 1 s.
    kill -TERM "$daemon_pid"
    for _ in $(seq 10); do
        kill -0 "$daemon_pid" 2> /dev/null || break
        sleep 0.1
    done
    if kill -0 "$daemon_pid" 2> /dev/null; then
        echo "check.sh: kl-wisdomd still running 1 s after SIGTERM" >&2
        hostile_ok=0
    elif ! wait "$daemon_pid"; then
        echo "check.sh: kl-wisdomd exited non-zero after SIGTERM" >&2
        hostile_ok=0
    else
        daemon_pid=""
    fi
    for fd in "${peers[@]}"; do
        exec {fd}>&-
    done
    if [ "$hostile_ok" -ne 1 ]; then
        cleanup_distributed
        return 1
    fi

    cleanup_distributed
    daemon_pid=""
    echo "check.sh: distributed stage passed"
}

# Link-time dead-code scan. Builds the product binaries (every tool,
# example and bench, plus perfbench) at -O0 with one section per function
# and links them with --gc-sections, so each binary keeps only what it can
# reach. A strong function defined in a src/ library that no product keeps
# is dead. The stage lists them and fails unless the list is exactly the
# documented public API below, which applications call but the products
# here happen not to.
deadcode_keep=(
    "kl::core::KernelArg::with_role"
    "kl::core::WisdomKernelRegistry::clear"
    "kl::core::WisdomKernelRegistry::def_digest"
    "kl::core::WisdomKernelRegistry::lookup"
    "kl::core::WisdomKernelRegistry::size"
    "kl::core::registry"
    "kl::graph::GraphCapture::add_memcpy_dtod"
    "kl::graph::GraphCapture::add_memcpy_dtoh"
    "kl::graph::GraphCapture::add_memcpy_htod"
)

run_deadcode() {
    local dir="$repo/build-check-deadcode"
    local -a products=(perfbench) binaries=("$dir/perfbench")
    local f name
    for f in "$repo"/tools/kl_*.cpp "$repo"/examples/*.cpp "$repo"/bench/bench_*.cpp; do
        name=$(basename "$f" .cpp)
        [[ $f == */tools/* ]] && name=${name//_/-}  # tools/kl_lint.cpp builds kl-lint
        products+=("$name")
        binaries+=("$dir/$(basename "$(dirname "$f")")/$name")
    done

    echo "=== [deadcode] build ${#products[@]} product binaries at -O0 with --gc-sections ==="
    cmake -B "$dir" -S "$repo" -DCMAKE_BUILD_TYPE=Debug \
        -DCMAKE_CXX_FLAGS_DEBUG="-O0 -ffunction-sections -fdata-sections" \
        -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" || return 1
    cmake --build "$dir" -j "$jobs" --target "${products[@]}" || return 1

    echo "=== [deadcode] strong src/ functions no product binary keeps ==="
    local defined kept dead
    defined=$(find "$dir/src" -name 'libkl_*.a' -exec nm -C --defined-only {} + |
        sed -n 's/^[0-9a-f]* T //p' | LC_ALL=C sort -u)
    kept=$(nm -C --defined-only "${binaries[@]}" | sed -n 's/^[0-9a-f]* [A-Za-z] //p' |
        LC_ALL=C sort -u)
    dead=$(LC_ALL=C comm -23 <(echo "$defined") <(echo "$kept"))
    echo "$(echo "$defined" | grep -c .) strong functions, $(echo "$dead" | grep -c .) unreachable:"
    echo "$dead"
    local unexpected
    unexpected=$(echo "$dead" | sed 's/(.*//' | grep -vxF -f <(printf '%s\n' "${deadcode_keep[@]}"))
    if [ -n "$unexpected" ]; then
        echo -e "check.sh: no product binary reaches (delete, or call from a product):\n$unexpected" >&2
        return 1
    fi
    echo "check.sh: deadcode stage passed"
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
        deadcode) run_deadcode; return $? ;;
        *)
            echo "check.sh: unknown variant '$name' (want default|thread|address|release|lint-graphs|mem-stress|distributed|deadcode)" >&2
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
