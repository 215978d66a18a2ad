#!/usr/bin/env python3
"""Steadiness tool: runs one workload several times and reports, for each
end-to-end metric of BENCHMARK.json, the median, the quartiles and the
quartile spread as a share of the median.

    # two sets of runs of this checkout, interleaved
    python3 perfbench/steady.py --workload serve --runs 10
    # this checkout (first set) against another checkout (second set),
    # alternating which side runs first
    python3 perfbench/steady.py --workload serve --runs 10 --other ../parent

Run from the repository root. Each run uses its own seed: set one uses
seeds 1..runs, set two 1001..1000+runs; --other runs both sets on seeds
1..runs. A set is steady when every metric's spread, setup_s's included,
is within the metric's bound; two sets agree when no metric's second
median is worse than the first by more than its bound and both sets fail
the same share of operations. Exits 0 when both hold.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run failed: {' '.join(cmd)} (exit {proc.returncode}) in {checkout}")
    return json.loads(lines[-1])


def summarize(results, metrics):
    out = {}
    for m in metrics:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        out[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med if med else float("inf")}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    out["failed_share"] = [r["failed"] / r["attempted"] for r in results]
    out["all_correct"] = all(r["correct"] for r in results)
    out["attempted"], out["failed"] = attempted, failed
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--other", help="second checkout to compare against")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    seconds = args.seconds or bench["run_seconds"]
    sides = [("first", ".", 0),
             ("second", args.other, 0) if args.other else ("second", ".", 1000)]

    results = {name: [] for name, _, _ in sides}
    for i in range(args.runs):
        order = sides if i % 2 == 0 else list(reversed(sides))
        for name, checkout, offset in order:
            seed = 1 + offset + i
            r = run_once(checkout, args.workload, seed, seconds)
            results[name].append(r)
            print(f"{name} seed={seed} " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in sorted(r["metrics"].items())),
                file=sys.stderr, flush=True)

    ok = True
    summaries = {name: summarize(results[name], metrics) for name, _, _ in sides}
    for name, _, _ in sides:
        s = summaries[name]
        print(f"\n[{args.workload}] {name} set: {args.runs} runs, "
              f"attempted={s['attempted']} failed={s['failed']} "
              f"all_correct={s['all_correct']}")
        print(f"{'metric':<20} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for m in metrics:
            x = s[m["name"]]
            flag = ""
            if x["spread"] > m["bound"]:
                flag, ok = "  UNSTEADY", False
            elif x["spread"] > m["bound"] / 3:
                flag = "  (above a third of the bound)"
            print(f"{m['name']:<20} {x['median']:>14.6g} {x['q1']:>14.6g} "
                  f"{x['q3']:>14.6g} {x['spread']:>8.4f} {m['bound']:>6}{flag}")
        ok = ok and s["all_correct"]

    first, second = summaries["first"], summaries["second"]
    print(f"\n[{args.workload}] second vs first median")
    for m in metrics:
        a, b = first[m["name"]]["median"], second[m["name"]]["median"]
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        verdict = "ok" if worse <= m["bound"] else "WORSE BEYOND BOUND"
        ok = ok and worse <= m["bound"]
        print(f"{m['name']:<20} {a:>14.6g} {b:>14.6g} worse_by={worse:+.4f} {verdict}")
    same_failed = sorted(set(first["failed_share"])) == sorted(set(second["failed_share"]))
    print(f"failed share: first={sorted(set(first['failed_share']))} "
          f"second={sorted(set(second['failed_share']))} "
          f"{'same' if same_failed else 'DIFFERENT'}")
    ok = ok and same_failed
    print("\nverdict:", "steady and agreeing" if ok else "NOT steady or not agreeing")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
