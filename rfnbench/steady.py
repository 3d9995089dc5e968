#!/usr/bin/env python3
"""Steadiness report: run the benchmark repeatedly and summarise.

    python3 rfnbench/steady.py --workload table1 --seeds 1-10 [--trace 1]

Run from the root of an rfn checkout. For every metric it prints the
median, the quartiles (statistics.quantiles(values, n=4)) and the
spread (q3 - q1) / median, next to the metric's bound from
BENCHMARK.json and a flag when the spread exceeds a third of it.

Work counters (rfn.iterations, bdd.nodes_allocated, atpg.decisions,
sat.propagations, the unreachable counts, the serve session counters)
must repeat exactly across runs of the same code. They are compared
across all runs of the paper-scale workloads, whose inputs do not
depend on the seed, and among runs sharing a seed for serve. A run
whose counters differ from the majority is flagged and left out of
the statistics.
"""

import argparse
import collections
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def bounds(trace):
    path = "BENCHMARK.json"
    if not os.path.isfile(path):
        return {}
    spec = json.load(open(path))
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m.get("bound") for m in spec[key]}


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    r = subprocess.run(cmd, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.exit("run failed (seed %d):\n%s" % (seed, r.stderr[-2000:]))
    work = next((json.loads(l[5:]) for l in lines if l.startswith("work ")), {})
    return json.loads(lines[-1]), work


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)
    runs = []
    for seed in seeds:
        result, work = run_once(args.workload, seed, args.seconds, args.trace)
        runs.append((seed, result, work))
        print("seed %-4d correct=%s failed=%d  %s" % (
            seed, result["correct"], result["failed"],
            " ".join("%s=%.4g" % (k, v["value"])
                     for k, v in result["metrics"].items())), flush=True)

    # Counter agreement: seed-independent workloads form one group.
    def group(seed):
        return seed if args.workload == "serve" else 0

    groups = collections.defaultdict(list)
    for seed, _, work in runs:
        groups[group(seed)].append(json.dumps(work, sort_keys=True))
    majority = {g: collections.Counter(ws).most_common(1)[0][0]
                for g, ws in groups.items()}
    kept = []
    for seed, result, work in runs:
        if json.dumps(work, sort_keys=True) != majority[group(seed)]:
            print("FLAG seed %d: work counters differ: %s" % (seed, work))
        else:
            kept.append(result)
    if kept:
        print("work counters agree in %d of %d runs%s: %s"
              % (len(kept), len(runs),
                 " (compared within each seed)" if args.workload == "serve" else "",
                 majority[group(runs[0][0])]))

    limit = bounds(args.trace)
    print("%-28s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3",
                                             "spread", "bound"))
    worst = 0.0
    for name in kept[0]["metrics"] if kept else []:
        values = [r["metrics"][name]["value"] for r in kept]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
            else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = limit.get(name)
        flag = ""
        if bound is not None and spread > bound / 3:
            flag = "  > bound/3"
        if bound is not None:
            worst = max(worst, spread / bound)
        print("%-28s %12.6g %12.6g %12.6g %8.4f %6s%s"
              % (name, med, q1, q3, spread,
                 "" if bound is None else "%.2f" % bound, flag))
    if limit and not args.trace:
        print("largest spread / bound: %.3f" % worst)


if __name__ == "__main__":
    main()
