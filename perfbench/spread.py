#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--seed0 1] [--seconds S]
                                [--save FILE] [--against FILE]
                                [WORKLOAD ...]

Runs perfbench/run.py --runs times per workload, each with another
--seed, one run at a time, and prints per metric the median and the
distance between the first and third quartiles (statistics.quantiles,
n=4) as a share of the median, next to the metric's bound from
BENCHMARK.json, plus the failed share of attempted operations.

--save writes every run's values to FILE (JSON). --against reads such
a file from an earlier set and prints, per metric, how far this set's
median moved from that set's median, in the metric's worse direction,
as a share of the earlier median.

Exits non-zero when a run fails or is not correct, when the failed
share differs between runs (or from the --against set), when a spread
is not below a third of its bound, or when a median is worse than the
--against median by more than the bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_set(bench, workload, runs, seed0, seconds):
    """Ten (or --runs) runs of one workload; values per metric."""
    values = {m["name"]: [] for m in bench["end_to_end"]}
    shares = set()
    ok = True
    for seed in range(seed0, seed0 + runs):
        out = subprocess.run(
            bench["command"] + ["--workload", workload, "--seed", str(seed),
                                "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        if out.returncode != 0:
            print("%s seed %d: exit %d" % (workload, seed, out.returncode))
            ok = False
            continue
        result = json.loads(out.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        shares.add((result["failed"], result["attempted"]))
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("%s seed %d: %s" % (workload, seed, " ".join(
            "%s=%.6g" % (n, v[-1]) for n, v in values.items())), flush=True)
    return ok, values, sorted({f / a for f, a in shares})


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--save")
    parser.add_argument("--against")
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args()
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)

    ok = True
    saved = {}
    for workload in args.workloads:
        set_ok, values, fractions = run_set(bench, workload, args.runs,
                                            args.seed0, args.seconds)
        saved[workload] = {"values": values, "failed_share": fractions}
        print("%s: failed share %s" % (workload, fractions))
        ok = ok and set_ok and len(fractions) == 1
        before = earlier.get(workload)
        if before is not None and before["failed_share"] != fractions:
            print("  failed share differs from the earlier set %s" %
                  before["failed_share"])
            ok = False
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            bound = metrics[name]["bound"]
            q = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q[2] - q[0]) / med
            steady = spread < bound / 3
            line = "  %-12s median %-12.6g spread %.4f bound %.2f%s" % (
                name, med, spread, bound, "" if steady else " WIDE")
            if before is not None:
                old = statistics.median(before["values"][name])
                worse = (med - old if metrics[name]["better"] == "lower"
                         else old - med) / old
                held = worse <= bound
                line += "  vs earlier median %.6g: %+.4f worse%s" % (
                    old, worse, "" if held else " OUT OF BOUND")
                ok = ok and held
            ok = ok and steady
            print(line)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
