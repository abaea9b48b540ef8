#!/usr/bin/env python3
"""Compare two sets of perfbench result files, e.g. a parent and a change.

    python3 perfbench/compare.py <base dir or files...> -- <change dir or files...>

Each side is a list of result files (or directories holding them) written
by perfbench/run.py. Runs are grouped by workload and by trace mode. For
every metric the tool prints each side's median and quartiles, the share
of (base, change) pairs the change won, and a verdict against the bounds in
BENCHMARK.json:

  improved    the change won at least 9/10 of the pairs and the medians
              differ by more than the base's own quartile spread
  worse       the change's median is worse than the base's by more than
              the metric's bound
  unresolved  the base's quartile spread is wider than the bound, and not
              every change run beats (or loses to) every base run
  unchanged   otherwise

Per-layer metrics have no bound; they get improved / changed / unchanged
by the same pair rule. Pairs are formed in file-name order (which is run
start order), so interleave the two sides' runs when you make them.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(paths):
    files = []
    for p in paths:
        if os.path.isdir(p):
            files += sorted(os.path.join(p, f) for f in os.listdir(p)
                            if f.endswith(".json"))
        else:
            files.append(p)
    runs = {}
    for f in sorted(files, key=os.path.basename):
        with open(f) as fh:
            r = json.load(fh)
        key = (r["workload"], bool(r.get("trace")))
        runs.setdefault(key, []).append(r)
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def verdict(base, change, better, bound):
    lower = better == "lower"
    q1, med, q3 = quartiles(base)
    _, cmed, _ = quartiles(change)
    pairs = list(zip(base, change))
    won = sum(1 for b, c in pairs if (c < b if lower else c > b))
    share = won / len(pairs) if pairs else 0.0
    spread = (q3 - q1) / abs(med) if med else 0.0
    gain = (med - cmed) if lower else (cmed - med)
    if share >= 0.9 and gain > (q3 - q1):
        return "improved", share
    if bound is None:
        return ("changed" if share <= 0.1 and -gain > (q3 - q1)
                else "unchanged"), share
    all_better = all((c < b if lower else c > b) for b in base for c in change)
    all_worse = all((c > b if lower else c < b) for b in base for c in change)
    if -gain > bound * abs(med):
        return ("unresolved" if spread > bound and not all_worse
                else "worse"), share
    if spread > bound and not all_better:
        return "unresolved", share
    return "unchanged", share


def main(argv):
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    base, change = load(argv[:cut]), load(argv[cut + 1:])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    worse = 0
    for key in sorted(set(base) & set(change)):
        workload, traced = key
        b_runs, c_runs = base[key], change[key]
        print("%s (%s, %d base / %d change runs)" %
              (workload, "traced" if traced else "end to end",
               len(b_runs), len(c_runs)))
        print("  %-40s %-30s %-30s %5s  %s" %
              ("metric", "base q1/median/q3", "change q1/median/q3", "won",
               "verdict"))
        for name in b_runs[0]["metrics"]:
            if name not in metrics or name not in c_runs[0]["metrics"]:
                continue
            bv = [r["metrics"][name]["value"] for r in b_runs]
            cv = [r["metrics"][name]["value"] for r in c_runs]
            m = metrics[name]
            v, share = verdict(bv, cv, m["better"], m.get("bound"))
            worse += v == "worse"
            fmt = lambda q: "%.4g/%.4g/%.4g" % q
            print("  %-40s %-30s %-30s %4.0f%%  %s" %
                  (name, fmt(quartiles(bv)), fmt(quartiles(cv)),
                   100 * share, v))
        for side, runs in (("base", b_runs), ("change", c_runs)):
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            shifted = sum(1 for r in runs if r["capacity"]["shifted"])
            print("  %s: %d/%d ops failed, %d runs with shifted host "
                  "capacity" % (side, failed, attempted, shifted))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
