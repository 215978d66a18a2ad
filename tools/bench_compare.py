#!/usr/bin/env python3
"""Benchmark trajectory tooling: merge google-benchmark JSON runs into a
single BENCH_prN.json trajectory file, and gate a current run against a
checked-in baseline.

Merge the per-suite JSON outputs of one run:

    tools/bench_compare.py merge --label pr3 --out BENCH_pr3.json \
        serve_concurrent=serve.json micro_query_ops=micro.json

Compare a run against a baseline (exit 1 on regression):

    tools/bench_compare.py compare BENCH_pr2.json BENCH_pr3.json \
        --threshold 0.25

A benchmark regresses when its metric worsens by more than --threshold
relative to the baseline: `items_per_second` (higher is better) when both
sides report it, `real_time` (lower is better) otherwise. Benchmarks
present on only one side are reported but never gate.

When the baseline is itself a trajectory point (BENCH_prN.json), each
benchmark is also checked against its best point across the trajectory up
to the baseline (every BENCH_prM.json in the baseline's directory with
M <= N), so a slow ratchet of sub-threshold steps fails too. Any other
baseline name (a runner-recorded BENCH_runner.json, say) has no place in
the trajectory, and this check is skipped. A point recorded on other
hardware (context.num_cpus) follows --hardware-mismatch, like the baseline.

User counters survive the merge and latency percentiles gate too: any
counter named like a percentile (p50_ms, p95, p99_ms, ...) is compared
lower-is-better at the same threshold — a serving path whose p99 blows up
fails the gate even when mean throughput holds. Other counters (e.g.
tenant_mix's shed_rate, whose healthy value depends on the workload
sizing rather than code quality) are carried for trend visibility but
never gate.
"""

import argparse
import glob
import json
import os
import re
import sys

# Keys google-benchmark emits for every entry; anything else numeric in a
# raw JSON entry is a user counter.
STANDARD_KEYS = {
    "name",
    "run_name",
    "run_type",
    "repetitions",
    "repetition_index",
    "threads",
    "iterations",
    "real_time",
    "cpu_time",
    "time_unit",
    "items_per_second",
    "bytes_per_second",
    "aggregate_name",
    "aggregate_unit",
    "family_index",
    "per_family_instance_index",
    "label",
    "error_occurred",
    "error_message",
    "big_o",
    "rms",
    "suite",
    "counters",
}

# Counters gated lower-is-better: latency percentiles however suffixed.
PERCENTILE_RE = re.compile(r"^p\d+(_|$)")


def load(path):
    with open(path) as f:
        return json.load(f)


def merged_entries(doc):
    """Entries of a merged trajectory file or a raw google-benchmark file.

    When the run used --benchmark_repetitions, only the median aggregates
    are kept (under the base benchmark name): medians are what make a
    checked-in baseline stable enough to gate against on noisy runners.
    """
    raw = doc.get("benchmarks", [])
    have_medians = any(b.get("aggregate_name") == "median" for b in raw)
    entries = []
    for b in raw:
        if have_medians:
            if b.get("aggregate_name") != "median":
                continue
            name = b.get("run_name", b["name"].removesuffix("_median"))
        else:
            if b.get("run_type") == "aggregate":
                continue
            name = b["name"]
        # User counters: already folded into "counters" for merged
        # trajectory entries, loose numeric fields in raw benchmark JSON.
        counters = dict(b.get("counters", {}))
        for k, v in b.items():
            if k not in STANDARD_KEYS and isinstance(v, (int, float)):
                counters[k] = v
        entries.append(
            {
                "suite": b.get("suite", ""),
                "name": name,
                "real_time": b["real_time"],
                "cpu_time": b.get("cpu_time"),
                "time_unit": b.get("time_unit", "ns"),
                **(
                    {"items_per_second": b["items_per_second"]}
                    if "items_per_second" in b
                    else {}
                ),
                **({"counters": counters} if counters else {}),
            }
        )
    return entries


def cmd_merge(args):
    out = {"label": args.label, "benchmarks": []}
    for spec in args.inputs:
        suite, _, path = spec.partition("=")
        if not path:
            sys.exit(f"merge input must be suite=path, got '{spec}'")
        doc = load(path)
        if "context" not in out:
            ctx = doc.get("context", {})
            out["context"] = {
                k: ctx[k]
                for k in ("num_cpus", "mhz_per_cpu", "library_version")
                if k in ctx
            }
        for e in merged_entries(doc):
            e["suite"] = suite
            out["benchmarks"].append(e)
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    print(f"wrote {args.out}: {len(out['benchmarks'])} benchmarks")
    return 0


def key(entry):
    return (entry["suite"], entry["name"])


TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def real_time_ns(entry):
    return entry["real_time"] * TIME_UNIT_NS[entry.get("time_unit", "ns")]


def judge(b, c):
    """(worsening, delta, shown) of `c` against `b`.

    `worsening` is relative to `b` for both metric kinds, so the threshold
    fires at the same relative slowdown whether the benchmark reports
    throughput or time (a 30% slowdown gates at 25% either way); `delta`
    is displayed with + = better, - = worse.
    """
    if "items_per_second" in b and "items_per_second" in c:
        # Higher is better.
        ratio = c["items_per_second"] / b["items_per_second"]
        shown = (f"{b['items_per_second']:.0f}/s", f"{c['items_per_second']:.0f}/s")
        return 1.0 - ratio, ratio - 1.0, shown
    # Lower is better.
    ratio = real_time_ns(c) / max(real_time_ns(b), 1e-12)
    shown = (
        f"{b['real_time']:.0f}{b['time_unit']}",
        f"{c['real_time']:.0f}{c['time_unit']}",
    )
    return ratio - 1.0, 1.0 - ratio, shown


def pr_number(path):
    """N of a BENCH_prN.json trajectory point; infinity for other files."""
    m = re.match(r"BENCH_pr(\d+)\.json$", os.path.basename(path))
    return int(m.group(1)) if m else float("inf")


def cpus(doc):
    return doc.get("context", {}).get("num_cpus")


def cmd_compare(args):
    base_doc = load(args.baseline)
    cur_doc = load(args.current)
    base = {key(e): e for e in merged_entries(base_doc)}
    cur = {key(e): e for e in merged_entries(cur_doc)}

    base_cpus = cpus(base_doc)
    cur_cpus = cpus(cur_doc)

    def mismatched(cpus_a):
        return cpus_a is not None and cur_cpus is not None and cpus_a != cur_cpus

    hardware_mismatch = mismatched(base_cpus)
    if hardware_mismatch:
        print(
            f"WARNING: baseline ran on {base_cpus} cpus, current on "
            f"{cur_cpus}; absolute numbers are not comparable apples-to-"
            "apples — expect deltas beyond the threshold on hardware changes."
        )

    regressions = []
    rows = []
    for k in sorted(base.keys() | cur.keys()):
        b, c = base.get(k), cur.get(k)
        if b is None or c is None:
            rows.append((k, "-", "-", "only in " + ("current" if b is None else "baseline")))
            continue
        worsening, delta, shown = judge(b, c)
        verdict = f"{delta:+.1%}"
        if worsening > args.threshold:
            verdict += "  REGRESSION"
            regressions.append((k, delta, hardware_mismatch))
        rows.append((k, shown[0], shown[1], verdict))

        # Shared user counters: percentile-named ones (p50_ms, p99_ms, ...)
        # gate lower-is-better; the rest are displayed only.
        b_counters = b.get("counters", {})
        c_counters = c.get("counters", {})
        for counter in sorted(b_counters.keys() & c_counters.keys()):
            bv, cv = b_counters[counter], c_counters[counter]
            ck = (k[0], f"{k[1]} [{counter}]")
            shown = (f"{bv:.3f}", f"{cv:.3f}")
            if not PERCENTILE_RE.match(counter):
                rows.append((ck, shown[0], shown[1], "(not gated)"))
                continue
            # 0.05 ms absolute noise floor: sub-tick percentiles on fast
            # paths must not divide by ~0 and flap the gate.
            worsening = (cv - bv) / max(bv, 0.05)
            delta = -worsening
            verdict = f"{delta:+.1%}"
            if worsening > args.threshold:
                verdict += "  REGRESSION"
                regressions.append((ck, delta, hardware_mismatch))
            rows.append((ck, shown[0], shown[1], verdict))

    # Best point per benchmark across the trajectory, when the baseline is
    # one of its points.
    baseline_n = pr_number(args.baseline)
    trajectory = [
        path
        for path in glob.glob(os.path.join(os.path.dirname(args.baseline), "BENCH_pr*.json"))
        if pr_number(path) <= baseline_n
    ] if baseline_n != float("inf") else []
    best = {}  # key -> (entry, path, cpus)
    for path in trajectory:
        doc = load(path)
        for e in merged_entries(doc):
            c = cur.get(key(e))
            if c is None:
                continue
            held = best.get(key(e))
            if held is None or judge(held[0], e)[0] < 0:
                best[key(e)] = (e, path, cpus(doc))
    for k in sorted(best):
        e, path, point_cpus = best[k]
        worsening, delta, shown = judge(e, cur[k])
        if worsening > args.threshold:
            label = (k[0], f"{k[1]} [best: {os.path.basename(path)}]")
            rows.append((label, shown[0], shown[1], f"{delta:+.1%}  REGRESSION"))
            regressions.append((label, delta, mismatched(point_cpus)))

    name_w = max(len(f"{s}:{n}") for s, n in (k for k, *_ in rows)) if rows else 10
    print(f"{'benchmark'.ljust(name_w)}  {'baseline':>14}  {'current':>14}  delta")
    for (s, n), b, c, verdict in rows:
        print(f"{(s + ':' + n).ljust(name_w)}  {b:>14}  {c:>14}  {verdict}")

    if regressions:
        print(
            f"\n{len(regressions)} benchmark(s) regressed more than "
            f"{args.threshold:.0%} vs {args.baseline} or the trajectory best:"
        )
        for (s, n), delta, _ in regressions:
            print(f"  {s}:{n}  {delta:+.1%}")
        if args.hardware_mismatch == "warn" and all(m for *_, m in regressions):
            print(
                "WARN-ONLY: hardware differs from the baseline "
                "(--hardware-mismatch=warn); not failing. Re-record the "
                "baseline on this runner class to re-arm the gate."
            )
            return 0
        print("FAIL")
        return 1
    print(f"\nOK: no benchmark regressed more than {args.threshold:.0%}.")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    merge = sub.add_parser("merge", help="merge suite runs into a trajectory file")
    merge.add_argument("--label", required=True, help="trajectory label, e.g. pr3")
    merge.add_argument("--out", required=True, help="output JSON path")
    merge.add_argument("inputs", nargs="+", help="suite=path pairs")
    merge.set_defaults(fn=cmd_merge)

    compare = sub.add_parser("compare", help="gate current vs baseline")
    compare.add_argument("baseline")
    compare.add_argument("current")
    compare.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="max tolerated relative regression (default 0.25 = 25%%)",
    )
    compare.add_argument(
        "--hardware-mismatch",
        choices=["gate", "warn"],
        default="gate",
        help="when the baseline's context.num_cpus differs from the current "
        "run's: 'gate' (default) still fails on regressions, 'warn' reports "
        "them but exits 0 (for CI runners that differ from the machine the "
        "checked-in baseline was recorded on)",
    )
    compare.set_defaults(fn=cmd_compare)

    args = parser.parse_args()
    sys.exit(args.fn(args))


if __name__ == "__main__":
    main()
