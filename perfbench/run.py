#!/usr/bin/env python3
"""Builds the engine and the benchmark driver from source, then runs one
workload and relays its result.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) and is incremental, so only the first run
in a checkout pays for compiling. Build output goes to stderr; the last line
of stdout is the driver's JSON result. With --trace 1 the span file is
written to <build dir>/spans/<workload>-seed<seed>.jsonl.

The driver reports only the metrics its workload measured. This script
checks them against BENCHMARK.json: an end-to-end run must report exactly
the `end_to_end` metrics, and a traced run only `per_layer` names, each
with the unit listed there; a name BENCHMARK.json does not list (a renamed
shape, say) stops the run. The result format carries every `per_layer`
metric in a traced result, so the ones this workload does not exercise
are added at 0 and named on stderr.

Exits non-zero without a result when the build fails (for instance when the
engine sources are missing), when any output check fails, or when the
driver's metrics do not match BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serve", "analytics", "ml")


def build(build_dir):
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(build_dir, "Makefile")):
        configure += ["-G", "Ninja"]
    jobs = str(os.cpu_count() or 1)
    for cmd in (configure, ["cmake", "--build", build_dir, "-j", jobs]):
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [
        os.path.join(build_dir, "tdp_perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        spans_dir = os.path.join(root, target, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        return proc.returncode or 1
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    error = complete_metrics(result["metrics"], args.trace, args.workload)
    if error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 5
    print(json.dumps(result), flush=True)
    return 0


def complete_metrics(metrics, trace, workload):
    """Checks the driver's metrics against BENCHMARK.json and, for a traced
    run, adds the per-layer metrics the workload did not measure at 0.
    Returns an error message, or None."""
    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        listed = json.load(f)["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    for name, metric in metrics.items():
        if name not in units:
            return f"metric {name} is not listed in BENCHMARK.json"
        if metric["unit"] != units[name]:
            return f"metric {name} has unit {metric['unit']}, BENCHMARK.json says {units[name]}"
    missing = [name for name in units if name not in metrics]
    if missing and not trace:
        return "end-to-end metrics missing: " + ", ".join(missing)
    if missing:
        print(f"perfbench: not exercised by {workload}, reported as 0: "
              + ", ".join(missing), file=sys.stderr)
    for name in missing:
        metrics[name] = {"value": 0, "unit": units[name]}
    return None


if __name__ == "__main__":
    sys.exit(main())
