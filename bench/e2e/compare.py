#!/usr/bin/env python3
"""Summarise one set of end-to-end benchmark runs, or compare two.

    python3 bench/e2e/compare.py A_DIR [B_DIR]

Each directory holds the result files `arams_e2e --out DIR` writes, one
`<workload>-s<seed>.json` per untraced run (bench/e2e/run.sh --runs 10
makes ten). For every workload and every end-to-end metric in
BENCHMARK.json this prints each side's median and quartiles (as
statistics.quantiles(values, n=4) gives them) and the metric's bound. With
two directories it adds a verdict for B against A:

  unresolved  A's or B's quartile spread, as a share of its median, is wider
              than the bound, and not every B run beats every A run
  improved    B beats A in at least 9 of every 10 seed-paired runs (ties
              count for neither) and the medians differ by more than A's
              quartile spread
  regressed   B's median is worse than A's by more than the bound
  unchanged   otherwise

Collect the two sides alternately, seed by seed (README.md shows the loop):
a shared host's speed can drift by 10-15% over minutes, so a block of A
runs followed by a block of B runs of the same commit can read "improved".

Runs whose provenance stamps differ in anything but the git revision and
the seed are not compared. Exit status: 0; 1 if a metric regressed or a run
failed its output checks; 2 if the stamps differ or a directory is empty.
Standard library only.
"""

import collections
import glob
import json
import os
import statistics
import sys

# Stamp fields that may differ between the two sides of a comparison.
FREE_STAMP_FIELDS = {"git", "build", "seed"}


def load_runs(directory):
    """{workload: [run, ...]} of the untraced result files in `directory`."""
    runs = collections.defaultdict(list)
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as f:
            try:
                run = json.load(f)
            except json.JSONDecodeError:
                continue  # a Chrome trace or another non-result file
        if isinstance(run, dict) and run.get("trace") == 0 and "workload" in run:
            runs[run["workload"]].append(run)
    return runs


def stamp(run):
    return {k: v for k, v in run["provenance"].items() if k not in FREE_STAMP_FIELDS}


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def describe(values):
    med = statistics.median(values)
    q1, q3 = quartiles(values)
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, spread


def better(x, y, direction):
    return x < y if direction == "lower" else x > y


def verdict(a_runs, b_runs, name, metric):
    a = {r["provenance"]["seed"]: r["metrics"][name]["value"] for r in a_runs}
    b = {r["provenance"]["seed"]: r["metrics"][name]["value"] for r in b_runs}
    a_vals, b_vals = list(a.values()), list(b.values())
    direction, bound = metric["better"], metric["bound"]
    med_a, q1_a, q3_a, spread_a = describe(a_vals)
    med_b, _, _, spread_b = describe(b_vals)
    all_better = all(better(y, x, direction) for y in b_vals for x in a_vals)
    pairs = [s for s in a if s in b]
    wins = sum(better(b[s], a[s], direction) for s in pairs)
    worse = (med_b - med_a) / abs(med_a) if med_a else 0.0
    if direction == "higher":
        worse = -worse
    if max(spread_a, spread_b) > bound and not all_better:
        return "unresolved"
    if (pairs and wins >= 0.9 * len(pairs) and better(med_b, med_a, direction)
            and abs(med_b - med_a) > q3_a - q1_a):
        return "improved"
    if worse > bound:
        return "regressed"
    return "unchanged"


def fmt(med, q1, q3):
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv):
    if len(argv) not in (2, 3):
        print("usage: compare.py A_DIR [B_DIR]", file=sys.stderr)
        return 2
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    sides = [load_runs(d) for d in argv[1:]]
    for directory, runs in zip(argv[1:], sides):
        if not runs:
            print(f"no untraced result files in {directory}", file=sys.stderr)
            return 2

    status = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        present = [runs.get(workload, []) for runs in sides]
        if not all(present):
            print(f"{workload}: missing on one side, skipped", file=sys.stderr)
            continue
        stamps = {json.dumps(stamp(r), sort_keys=True) for runs in present for r in runs}
        if len(stamps) > 1:
            print(f"{workload}: provenance stamps differ; not comparing:", file=sys.stderr)
            for s in sorted(stamps):
                print(f"  {s}", file=sys.stderr)
            return 2
        for runs in present:
            for r in runs:
                if not r["correct"]:
                    status = 1
                    print(f"{workload} seed {r['provenance']['seed']}: failed checks "
                          f"{r['failures']}; left out", file=sys.stderr)
        present = [[r for r in runs if r["correct"]] for runs in present]
        if not all(present):
            continue
        print(f"\n{workload}  ({len(present[0])} runs" +
              (f" vs {len(present[1])})" if len(present) == 2 else ")"))
        header = f"  {'metric':16s} {'unit':9s} {'A median [q1, q3]':32s}"
        if len(present) == 2:
            header += f" {'B median [q1, q3]':32s} {'bound':>6s}  verdict"
        else:
            header += f" {'spread':>7s} {'bound':>6s}"
        print(header)
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a_vals = [r["metrics"][name]["value"] for r in present[0]]
            med, q1, q3, spread = describe(a_vals)
            line = f"  {name:16s} {metric['unit']:9s} {fmt(med, q1, q3):32s}"
            if len(present) == 2:
                b_vals = [r["metrics"][name]["value"] for r in present[1]]
                result = verdict(present[0], present[1], name, metric)
                if result == "regressed":
                    status = 1
                line += f" {fmt(*describe(b_vals)[:3]):32s} {metric['bound']:6.2f}  {result}"
            else:
                line += f" {spread:7.3f} {metric['bound']:6.2f}"
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
