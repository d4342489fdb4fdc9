#!/usr/bin/env python3
"""Repeats each workload over several seeds and prints each metric's
median and quartiles against its bound from BENCHMARK.json.

Run from the repository root:

    python3 e2ebench/repeat.py [--runs 10] [--first-seed 1]
                               [--workloads scan_adhoc,dashboard_live]
                               [--save set.json] [--compare older.json]

For every end-to-end metric it prints the median, the first and third
quartile (statistics.quantiles(values, n=4)), the spread (q3 - q1) as a
share of the median, and whether that spread is within the metric's
bound (setup_s is reported but exempt, as its bound only limits
regressions). It also prints each workload's failed share per run, which
must not vary. --save writes the raw results; --compare checks this
set's medians against a saved set: none may be worse by more than the
bound. Exits non-zero when a spread, a comparison, a correctness flag or
the failed share fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace="0"):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", trace]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit("%s seed %d exited with %d" %
                         (workload, seed, proc.returncode))
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--save")
    parser.add_argument("--compare")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    results = {}
    ok = True
    for workload in workloads:
        runs = []
        for k in range(args.runs):
            seed = args.first_seed + k
            result = run_once(workload, seed, bench["run_seconds"])
            runs.append(result)
            print("  %s seed %d: attempted %d failed %d correct %s" %
                  (workload, seed, result["attempted"], result["failed"],
                   result["correct"]), file=sys.stderr)
        results[workload] = runs
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print("\n%s  (%d runs, failed share %s)" %
              (workload, len(runs), ", ".join("%.6f" % s for s in shares)))
        if len(shares) != 1 or not all(r["correct"] for r in runs):
            print("  FAIL: failed share varies or a run was incorrect")
            ok = False
        print("  %-24s %12s %12s %12s %8s %6s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        for name, spec in metrics.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("inf")
            exempt = name == "setup_s"
            verdict = "" if exempt or spread <= spec["bound"] else "  OVER"
            if verdict:
                ok = False
            print("  %-24s %12.5g %12.5g %12.5g %7.1f%% %5.0f%%%s" %
                  (name, med, q1, q3, 100 * spread, 100 * spec["bound"],
                   verdict))
    if args.save:
        with open(args.save, "w") as f:
            json.dump(results, f)
    if args.compare:
        with open(args.compare) as f:
            older = json.load(f)
        print("\nmedians against %s" % args.compare)
        for workload, runs in results.items():
            for name, spec in metrics.items():
                if workload not in older:
                    continue
                new = statistics.median(r["metrics"][name]["value"]
                                        for r in runs)
                old = statistics.median(r["metrics"][name]["value"]
                                        for r in older[workload])
                worse = (new - old) / old if spec["better"] == "lower" \
                    else (old - new) / old
                verdict = "OK" if worse <= spec["bound"] else "WORSE"
                if verdict != "OK":
                    ok = False
                print("  %-16s %-24s %+7.1f%% worse (bound %.0f%%) %s" %
                      (workload, name, 100 * worse, 100 * spec["bound"],
                       verdict))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
