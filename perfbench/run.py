#!/usr/bin/env python3
"""Launch-cost benchmark of Kernel Launcher: builds the library and the
`perfbench` binary from this checkout, runs one workload, checks its
outputs, prints every metric with its unit, clock and owner, and ends with
one JSON result line.

    python3 perfbench/run.py --workload steady_timestep --seed 1 \
        --seconds 30 --trace 0

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under perfbench/, scratch files to work/ there.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones and writes the traced run's spans as a Chrome trace that
`kl-trace` summarises. Metric tags and the held-out seed for later claim
checks are in perfbench/metrics.json. Exits 1 without a result when the
build or the run breaks, and 1 after printing the result when an output
check failed.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(root, build_dir, env):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"],
    ]
    if os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps = steps[1:]
    for step in steps:
        done = subprocess.run(step, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("perfbench: build step failed:", " ".join(step))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "metrics.json")) as f:
        tags = json.load(f)
    # Workloads too noisy to gate stay runnable (see metrics.json).
    known = [w["name"] for w in spec["workloads"]] + list(tags["ungated_workloads"])
    if args.workload not in known:
        log("perfbench: unknown workload", args.workload)
        return 1
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target, "perfbench")
    # The run is configured by flags alone: no KERNEL_LAUNCHER_* setting
    # from the caller's environment may change what is measured. Temporary
    # files of the compiler and the run stay inside the build directory.
    env = {k: v for k, v in os.environ.items() if not k.startswith("KERNEL_LAUNCHER_")}
    env["TMPDIR"] = os.path.join(build_dir, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not build(root, build_dir, env):
        return 1
    work_dir = os.path.join(build_dir, "work", args.workload)
    command = [
        os.path.join(build_dir, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", work_dir,
    ]
    try:
        done = subprocess.run(command, cwd=root, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded", RUN_TIMEOUT_S, "s")
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log("perfbench: run failed with exit code", done.returncode)
        return 1
    raw = json.loads(lines[-1])
    metrics = raw["metrics"]

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    bad = [m["name"] for m in wanted if m["name"] in metrics and not math.isfinite(metrics[m["name"]]["value"])]
    if missing or bad:
        log("perfbench: missing metrics", missing, "non-finite", bad)
        return 1

    print("workload %s  seed %d  seconds %g  trace %d  (held-out seed for claim checks: %d)"
          % (args.workload, args.seed, args.seconds, args.trace, tags["held_out_seed"]))
    units = tags["units_of_work"][args.workload]
    print("  call: %s\n  unit: %s\n  mt: %s\n  model: %s" % (units["call"], units["unit"], units["mt"], units["model"]))
    print("%-40s %18s %-6s %-6s %-9s" % ("metric", "value", "unit", "clock", "owner"))
    listed = {m["name"] for m in spec["end_to_end"]} | {m["name"] for m in spec["per_layer"]}
    for name in sorted(metrics):
        tag = tags["metrics"].get(name, {"clock": "-", "owner": "-"})
        marker = "" if name in {m["name"] for m in wanted} else "  (detail)" if name not in listed else "  (other set)"
        print("%-40s %18.6g %-6s %-6s %-9s%s"
              % (name, metrics[name]["value"], metrics[name]["unit"], tag["clock"], tag["owner"], marker))
    print("checks %d  attempted %d  failed %d" % (raw["checks"], raw["attempted"], raw["failed"]))
    for failure in raw["failures"]:
        print("  FAILED:", failure)
    if args.trace:
        print("trace written to", os.path.relpath(os.path.join(work_dir, "trace.json"), root))

    correct = raw["failed"] == 0
    result = {
        "correct": correct,
        "attempted": max(1, int(raw["attempted"])),
        "failed": int(raw["failed"]),
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
