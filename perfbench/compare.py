#!/usr/bin/env python3
"""Compares two sets of benchmark results, workload by workload.

  python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the records `run.py --trace 0 --out FILE` appends, one per
run; a set is typically ten runs per workload, each with its own seed.
For every end-to-end metric of BENCHMARK.json and every workload in both
sets the report gives both medians and a verdict:

- metrics a record lists under "exact" (the deterministic model's outputs)
  are compared exactly, seed by seed: "identical" or "changed". Records of
  one seed that disagree within a set are "changed" too;
- host metrics (every other one) are "over bound" when the new median is
  worse than the base median by more than the metric's bound, else "worse"
  or "better" when the medians differ by more than the noise, the larger of
  the two sets' quartile spreads (q3 - q1 over the median). Otherwise the
  verdict is "unresolved" when the noise is wider than the bound (a
  regression of the bound's size could hide in it) and "within noise" when
  it is not.

Runs whose result was not correct are left out of the medians and reported
as a "failed runs" row of their workload.

Exits 1 when any row is "over bound", "worse", "changed" or "failed runs",
else 0.
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
FAILING = ("over bound", "worse", "changed", "failed runs")


def load(path):
    with open(path) as f:
        return [r for r in map(json.loads, filter(str.strip, f)) if r.get("trace") == 0]


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def host_verdict(a, b, metric):
    """Noise and verdict of host metric samples `a` (base) against `b` (new)."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    noise = max(spread(a), spread(b))
    change = (med_b - med_a) / med_a if med_a else 0.0
    worse = change if metric["better"] == "lower" else -change
    if worse > metric["bound"]:
        return noise, "over bound"
    if worse > noise:
        return noise, "worse"
    if -worse > noise:
        return noise, "better"
    return noise, "unresolved" if noise > metric["bound"] else "within noise"


def exact_verdict(a, b):
    """Verdict of an exact metric; `a` and `b` map each seed to the set of
    values its records gave."""
    if any(len(values) != 1 for values in list(a.values()) + list(b.values())):
        return "changed"
    common = set(a) & set(b)
    if common:
        return "identical" if all(a[s] == b[s] for s in common) else "changed"
    return "identical" if set().union(*a.values()) == set().union(*b.values()) else "changed"


def compare(base, new, metrics):
    """Returns one row per (workload, metric) present in both sets, and a
    "failed runs" row for each workload with failed runs in either set.
    `metrics` are BENCHMARK.json's end_to_end entries."""
    rows = []
    workloads = sorted({r["workload"] for r in base} & {r["workload"] for r in new})
    for workload in workloads:
        sides = []
        for records in (base, new):
            mine = [r for r in records if r["workload"] == workload]
            sides.append([r for r in mine if r["result"]["correct"]])
            sides.append(len(mine) - len(sides[-1]))
        good_a, failed_a, good_b, failed_b = sides
        if failed_a or failed_b:
            rows.append({"workload": workload, "metric": "-", "base": failed_a,
                         "new": failed_b, "noise": 0.0, "verdict": "failed runs"})
        if not good_a or not good_b:
            continue
        for m in metrics:
            name = m["name"]
            a = [(r["seed"], r["result"]["metrics"][name]["value"]) for r in good_a]
            b = [(r["seed"], r["result"]["metrics"][name]["value"]) for r in good_b]
            row = {"workload": workload, "metric": name,
                   "base": statistics.median(v for _, v in a),
                   "new": statistics.median(v for _, v in b), "noise": 0.0}
            if all(name in r.get("exact", ()) for r in good_a + good_b):
                per_seed = ({}, {})
                for side, seeds in zip((a, b), per_seed):
                    for seed, v in side:
                        seeds.setdefault(seed, set()).add(v)
                row["verdict"] = exact_verdict(*per_seed)
            else:
                row["noise"], row["verdict"] = host_verdict(
                    [v for _, v in a], [v for _, v in b], m)
            rows.append(row)
    return rows


def main():
    if len(sys.argv) != 3:
        sys.exit("usage: compare.py BASE.jsonl NEW.jsonl")
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    rows = compare(load(sys.argv[1]), load(sys.argv[2]), metrics)
    print("%-16s %-20s %14s %14s %8s %7s  %s"
          % ("workload", "metric", "base", "new", "change", "noise", "verdict"))
    for r in rows:
        change = (r["new"] - r["base"]) / r["base"] * 100 if r["base"] else 0.0
        print("%-16s %-20s %14.6g %14.6g %+7.2f%% %6.2f%%  %s"
              % (r["workload"], r["metric"], r["base"], r["new"], change, r["noise"] * 100,
                 r["verdict"]))
    sys.exit(1 if any(r["verdict"] in FAILING for r in rows) else 0)


if __name__ == "__main__":
    main()
