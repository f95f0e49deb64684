#!/usr/bin/env python3
"""Self-test of compare.py: python3 perfbench/test_compare.py"""

import copy
import json
import unittest
from pathlib import Path

import compare

METRICS = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                     .read_text())["end_to_end"]
WORKLOADS = ("ring64_control", "stencil16_vm", "sparse8_ckpt")
EXACT = ("job_virtual_s", "recovery_virtual_s", "ckpt_stable_bytes")


def record(workload, seed, values):
    return {"workload": workload, "seed": seed, "trace": 0, "exact": list(EXACT),
            "result": {"correct": True,
                       "metrics": {k: {"value": v, "unit": "-"} for k, v in values.items()}}}


def result_set(seeds=range(1, 11), jitter_pct=1.0):
    """Ten runs per workload with a small jitter on the host metrics, the way
    one seed per run gives them."""
    records = []
    for w, workload in enumerate(WORKLOADS):
        for i, seed in enumerate(seeds):
            jitter = 1.0 + jitter_pct / 100 * ((i * 7) % 5 - 2) / 2
            records.append(record(workload, seed, {
                "wall_s": (1.0 + w) * jitter,
                "setup_s": 0.001 * (1 + w) * jitter,
                "peak_rss_mb": 20.0 * (1 + w) * jitter,
                "job_virtual_s": 5.0 + w + seed * 1e-3,
                "recovery_virtual_s": 0.25 + seed * 1e-3,
                "ckpt_stable_bytes": 8.0e7 + w * 1e6 + seed,
            }))
    return records


def scaled(records, workload, metric, factor=1.0, offset=0.0):
    out = copy.deepcopy(records)
    for r in out:
        if r["workload"] == workload:
            m = r["result"]["metrics"][metric]
            m["value"] = m["value"] * factor + offset
    return out


def verdicts(rows, *kinds):
    return {(r["workload"], r["metric"]) for r in rows if r["verdict"] in kinds}


def flagged(rows):
    return verdicts(rows, *compare.FAILING)


class CompareSelfTest(unittest.TestCase):
    def test_set_against_itself_is_within_bounds(self):
        base = result_set()
        rows = compare.compare(base, copy.deepcopy(base), METRICS)
        self.assertEqual(len(rows), len(WORKLOADS) * len(METRICS))
        self.assertEqual(flagged(rows), set())
        self.assertEqual(verdicts(rows, "unresolved"), set())

    def test_ten_percent_slower_wall_is_flagged_on_that_workload_only(self):
        base = result_set()
        rows = compare.compare(base, scaled(base, "stencil16_vm", "wall_s", factor=1.10),
                               METRICS)
        self.assertEqual(flagged(rows), {("stencil16_vm", "wall_s")})

    def test_virtual_metric_changed_by_one_unit_is_flagged(self):
        base = result_set()
        rows = compare.compare(base, scaled(base, "sparse8_ckpt", "ckpt_stable_bytes",
                                            offset=1), METRICS)
        self.assertEqual(flagged(rows), {("sparse8_ckpt", "ckpt_stable_bytes")})

    def test_spread_wider_than_bound_is_unresolved_and_beyond_bound_fails(self):
        base = result_set(jitter_pct=60.0)  # quartile spread ~0.3 > every bound
        same = compare.compare(base, copy.deepcopy(base), METRICS)
        self.assertIn(("ring64_control", "wall_s"), verdicts(same, "unresolved"))
        self.assertEqual(flagged(same), set())
        slower = compare.compare(base, scaled(base, "ring64_control", "wall_s", factor=1.30),
                                 METRICS)
        self.assertEqual(verdicts(slower, "over bound"), {("ring64_control", "wall_s")})

    def test_repeated_seeds_keep_every_sample(self):
        # Ten runs all with the default seed: the noise comes from all ten.
        base = result_set(seeds=[1] * 10)
        rows = compare.compare(base, copy.deepcopy(base), METRICS)
        wall = next(r for r in rows if r["workload"] == "ring64_control"
                    and r["metric"] == "wall_s")
        self.assertGreater(wall["noise"], 0.0)
        self.assertEqual(flagged(rows), set())

    def test_disagreeing_records_of_one_seed_are_changed(self):
        base = result_set(seeds=[1] * 10)
        new = copy.deepcopy(base)
        new[0]["result"]["metrics"]["ckpt_stable_bytes"]["value"] += 1
        rows = compare.compare(base, new, METRICS)
        self.assertEqual(flagged(rows), {("ring64_control", "ckpt_stable_bytes")})

    def test_failed_runs_are_reported_not_crashed_on(self):
        base = result_set()
        new = copy.deepcopy(base)
        new[3]["result"] = {"correct": False, "metrics": {}}
        rows = compare.compare(base, new, METRICS)
        self.assertEqual(flagged(rows), {("ring64_control", "-")})


if __name__ == "__main__":
    unittest.main()
