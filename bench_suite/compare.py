#!/usr/bin/env python3
"""Compares bench_suite runs of a parent commit against a change.

    python3 bench_suite/compare.py PARENT_DIR CHANGE_DIR [--benchmark FILE]

Each directory holds one file per run: the stdout of run.py (or of the
bench_suite binary) for one workload and seed. Runs are paired by
(workload, trace, seed); run the two sides alternately, parent first on
odd pairs and change first on even ones, with the same --seconds.

For every (workload, metric) the report gives each side's median and
quartiles, the change's median relative to the parent's, and how many
pairs the change won; per workload it also gives each side's median host
CPU steal from the run records. Verdicts follow BENCHMARK.json:

  improved    at least 10 pairs, the change wins at least 9/10 of them
              (ties count for neither side), the medians differ by more
              than the parent's interquartile range, and no more runs
              failed than at the parent;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound (per-layer metrics have no bound: they
              regress by the mirror image of the improved rule);
  unresolved  the parent's own spread (IQR / median) exceeds the bound and
              not every change run beats every parent run;
  unchanged   otherwise.

Exits 1 when an end-to-end metric regressed or a run reported wrong
answers, else 0.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(directory):
    """{(workload, trace, seed): result} from every run file in directory."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        detail = result = None
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                obj = json.loads(line)
                if "bench_suite" in obj:
                    detail = obj["bench_suite"]
                elif "metrics" in obj and detail is not None:
                    result = obj
                    result["steal_frac"] = detail.get("steal_frac", 0.0)
                    key = (detail["workload"], detail["trace"], detail["seed"])
                    runs[key] = result
                    detail = None
        if result is None:
            sys.exit("compare.py: no bench_suite result in " + path)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, better, bound, more_failures):
    """Applies the rules in the module docstring to one metric."""
    sign = 1.0 if better == "higher" else -1.0
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    n = len(parent)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    moved = abs(c_med - p_med) > (p_q3 - p_q1)
    if n >= MIN_PAIRS and wins >= WIN_SHARE * n and moved:
        return ("unresolved" if more_failures else "improved"), wins
    if bound is None:
        if n >= MIN_PAIRS and losses >= WIN_SHARE * n and moved:
            return "regressed", wins
        return "unchanged", wins
    spread = (p_q3 - p_q1) / abs(p_med) if p_med else 0.0
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if spread > bound and not all_better:
        return "unresolved", wins
    worse = -sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    return ("regressed" if worse > bound else "unchanged"), wins


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark",
                        default=os.path.join(os.path.dirname(HERE),
                                             "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.benchmark) as f:
        spec = json.load(f)
    metrics = {m["name"]: (m, "end_to_end") for m in spec["end_to_end"]}
    metrics.update({m["name"]: (m, "per_layer") for m in spec["per_layer"]})
    parent_runs = load_runs(args.parent)
    change_runs = load_runs(args.change)

    keys = sorted(set(parent_runs) & set(change_runs))
    if not keys:
        sys.exit("compare.py: no (workload, trace, seed) run on both sides")
    groups = {}
    for key in keys:
        groups.setdefault(key[:2], []).append(key)

    failed = False
    print("%-13s %-28s %-9s %24s %24s %8s %5s %6s  %s" %
          ("workload", "metric", "unit", "parent med [q1,q3]",
           "change med [q1,q3]", "delta", "wins", "bound", "verdict"))
    for (workload, trace), group in sorted(groups.items()):
        p_res = [parent_runs[k] for k in group]
        c_res = [change_runs[k] for k in group]
        if not all(r["correct"] for r in p_res + c_res):
            print("%s: a run reported wrong answers" % workload)
            failed = True
        more_failures = (sum(r["failed"] for r in c_res) >
                         sum(r["failed"] for r in p_res))
        for name in p_res[0]["metrics"]:
            if name not in metrics:
                continue
            m, kind = metrics[name]
            parent = [r["metrics"][name]["value"] for r in p_res]
            change = [r["metrics"][name]["value"] for r in c_res]
            v, wins = verdict(parent, change, m["better"], m.get("bound"),
                              more_failures)
            if v == "regressed" and kind == "end_to_end":
                failed = True
            p_med, c_med = statistics.median(parent), statistics.median(change)
            delta = "%+.1f%%" % ((c_med - p_med) / abs(p_med) * 100) \
                if p_med else "n/a"
            bound = "%.3f" % m["bound"] if "bound" in m else "-"
            print("%-13s %-28s %-9s %24s %24s %8s %2d/%-2d %6s  %s" % (
                workload, name, m["unit"],
                "%.4g [%.4g,%.4g]" % ((p_med,) + quartiles(parent)),
                "%.4g [%.4g,%.4g]" % ((c_med,) + quartiles(change)),
                delta, wins, len(group), bound, v))
        # Host CPU steal slows every metric alike; a gap between the sides
        # points at the machine, not the change.
        print("%s: median CPU steal %.3f parent, %.3f change" % (
            workload, statistics.median(r["steal_frac"] for r in p_res),
            statistics.median(r["steal_frac"] for r in c_res)))
        if len(group) < MIN_PAIRS:
            print("%s: %d pairs; a gain needs at least %d" %
                  (workload, len(group), MIN_PAIRS))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
