#!/usr/bin/env python3
"""Synthetic cases for compare.py's verdict rule.

    python3 benchmark/test_compare.py
"""

import json
import os
import statistics
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

SPEC = {
    "end_to_end": [
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.05},
        {"name": "lat", "unit": "ms", "better": "lower", "bound": 0.05},
    ],
    "per_layer": [{"name": "cost_ns", "unit": "ns", "better": "lower"}],
}


def by_seed(values, first_seed=1):
    return {first_seed + i: [v] for i, v in enumerate(values)}


def record(workload, seed, trace, e2e=None, layer=None, exact=()):
    return {"workload": workload, "seed": seed, "trace": trace,
            "end_to_end": e2e or {}, "per_layer": layer or {},
            "exact": list(exact)}


class JudgeTest(unittest.TestCase):
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]

    def test_identical_sets_are_unchanged(self):
        r = compare.judge(by_seed(self.base), by_seed(self.base), "higher", 0.05)
        self.assertEqual(r["verdict"], "unchanged")
        self.assertEqual(r["wins"], 0)  # ties count for neither side

    def test_clear_gain_higher_is_better(self):
        new = [v * 1.2 for v in self.base]
        r = compare.judge(by_seed(self.base), by_seed(new), "higher", 0.05)
        self.assertEqual(r["verdict"], "improved")
        self.assertEqual((r["wins"], r["pairs"]), (10, 10))

    def test_clear_gain_lower_is_better(self):
        new = [v * 0.8 for v in self.base]
        r = compare.judge(by_seed(self.base), by_seed(new), "lower", 0.05)
        self.assertEqual(r["verdict"], "improved")

    def test_worse_beyond_bound_regresses(self):
        new = [v * 1.1 for v in self.base]  # 10% higher latency, bound 5%
        r = compare.judge(by_seed(self.base), by_seed(new), "lower", 0.05)
        self.assertEqual(r["verdict"], "regressed")

    def test_worse_within_bound_is_unchanged(self):
        new = [v * 0.98 for v in self.base]  # 2% less throughput, bound 5%
        r = compare.judge(by_seed(self.base), by_seed(new), "higher", 0.05)
        self.assertEqual(r["verdict"], "unchanged")

    def test_nine_of_ten_wins_needed(self):
        new = [v * 1.2 for v in self.base]
        new[0], new[1] = 50.0, 50.0  # two losses: 8/10 wins
        r = compare.judge(by_seed(self.base), by_seed(new), "higher", 0.5)
        self.assertEqual(r["wins"], 8)
        self.assertEqual(r["verdict"], "unchanged")

    def test_gain_must_exceed_base_quartile_spread(self):
        base = [80.0, 120.0, 90.0, 110.0, 100.0, 85.0, 115.0, 95.0, 105.0, 100.0]
        new = [v + 3.0 for v in base]  # wins every pair, but by less than the IQR
        r = compare.judge(by_seed(base), by_seed(new), "higher", 0.5)
        self.assertEqual(r["wins"], 10)
        self.assertEqual(r["verdict"], "unchanged")

    def test_noisy_base_is_unresolved(self):
        base = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
        new = list(reversed(base))
        r = compare.judge(by_seed(base), by_seed(new), "lower", 0.05)
        self.assertEqual(r["verdict"], "unresolved")

    def test_noisy_but_every_new_run_better_is_not_unresolved(self):
        base = [100.0, 140.0, 110.0, 130.0, 120.0] * 2
        new = [10.0, 20.0, 15.0, 25.0, 12.0] * 2
        r = compare.judge(by_seed(base), by_seed(new), "lower", 0.05)
        self.assertEqual(r["verdict"], "improved")

    def test_fewer_than_ten_pairs_is_unresolved(self):
        # One pair has no spread, so any difference would read as signal.
        r = compare.judge({1: [100.0]}, {1: [99.0]}, "lower", 0.05)
        self.assertEqual(r["verdict"], "unresolved")
        r = compare.judge({1: [100.0]}, {1: [101.0]}, "lower", None)
        self.assertEqual(r["verdict"], "unresolved")
        nine = self.base[:9]
        r = compare.judge(by_seed(nine), by_seed([v * 2 for v in nine]),
                          "lower", 0.05)
        self.assertEqual(r["verdict"], "unresolved")

    def test_repeated_runs_of_a_seed_all_count(self):
        base = {s: [v, v + 1.0] for s, [v] in by_seed(self.base).items()}
        new = {s: [v + 0.5] for s, [v] in by_seed(self.base).items()}
        r = compare.judge(base, new, "higher", 0.05)
        self.assertEqual(r["pairs"], 10)
        self.assertEqual(r["wins"], 0)  # 0.5 above one run ties the seed median
        self.assertEqual(r["base"][1], statistics.median(
            self.base + [v + 1.0 for v in self.base]))

    def test_exact_metric_regresses_on_any_worse_seed(self):
        base = [float(v) for v in range(100, 110)]
        new = list(base)
        new[3] += 1.0  # one seed, 1%: inside a 25% bound, still a change
        r = compare.judge(by_seed(base), by_seed(new), "lower", 0.25, exact=True)
        self.assertEqual(r["verdict"], "regressed")
        r = compare.judge(by_seed(base), by_seed(base), "lower", 0.25, exact=True)
        self.assertEqual(r["verdict"], "unchanged")

    def test_exact_metric_improves_without_spread(self):
        base = [float(v) for v in range(100, 110)]
        new = [v - 1.0 for v in base]  # far inside the cross-seed spread
        r = compare.judge(by_seed(base), by_seed(new), "lower", 0.25, exact=True)
        self.assertEqual(r["verdict"], "improved")
        self.assertEqual(compare.judge(by_seed(base), by_seed(new), "lower",
                                       0.25)["verdict"], "unchanged")

    def test_per_layer_metric_without_bound(self):
        worse = [v * 1.5 for v in self.base]
        r = compare.judge(by_seed(self.base), by_seed(worse), "lower", None)
        self.assertEqual(r["verdict"], "regressed")
        slightly = [v * 1.001 for v in self.base]
        r = compare.judge(by_seed(self.base), by_seed(slightly), "lower", None)
        self.assertEqual(r["verdict"], "unchanged")

    def test_pairs_only_on_shared_seeds(self):
        base = by_seed(self.base)
        new = by_seed([v * 1.2 for v in self.base], first_seed=6)
        r = compare.judge(base, new, "higher", 0.05)
        self.assertEqual(r["pairs"], 5)
        self.assertEqual(r["verdict"], "unresolved")


class CompareTest(unittest.TestCase):
    def test_kinds_come_from_their_own_runs(self):
        base = [record("w", s, 0, e2e={"rate": 100.0, "lat": 5.0})
                for s in range(1, 11)]
        base += [record("w", s, 1, e2e={"rate": 1.0}, layer={"cost_ns": 10.0})
                 for s in range(1, 11)]
        new = [record("w", s, 0, e2e={"rate": 100.0, "lat": 6.0})
               for s in range(1, 11)]
        new += [record("w", s, 1, e2e={"rate": 1.0}, layer={"cost_ns": 10.0})
                for s in range(1, 11)]
        rows = {(r["kind"], r["metric"]): r for r in
                compare.compare(base, new, SPEC)}
        self.assertEqual(rows[("end_to_end", "rate")]["base"][1], 100.0)
        self.assertEqual(rows[("end_to_end", "lat")]["verdict"], "regressed")
        self.assertEqual(rows[("per_layer", "cost_ns")]["verdict"], "unchanged")

    def test_exact_only_when_every_run_marks_it(self):
        base = [record("w", s, 0, e2e={"lat": 100.0}, exact=["lat"])
                for s in range(1, 11)]
        new = [record("w", s, 0, e2e={"lat": 100.0 + (s == 4)}, exact=["lat"])
               for s in range(1, 11)]
        row = compare.compare(base, new, SPEC)[0]
        self.assertEqual((row["exact"], row["verdict"]), (True, "regressed"))
        new[0]["exact"] = []
        row = compare.compare(base, new, SPEC)[0]
        self.assertEqual((row["exact"], row["verdict"]), (False, "unchanged"))

    def test_every_run_of_a_seed_is_kept(self):
        recs = [record("w", 1, 0, e2e={"rate": 1.0}),
                record("w", 1, 0, e2e={"rate": 3.0})]
        values, _ = compare.samples(recs, "end_to_end")
        self.assertEqual(values[("w", "rate")], {1: [1.0, 3.0]})

    def test_load_results_skips_chrome_traces(self):
        with tempfile.TemporaryDirectory() as d:
            with open(os.path.join(d, "w-seed1-trace0.json"), "w") as f:
                json.dump(record("w", 1, 0, e2e={"rate": 1.0}), f)
            with open(os.path.join(d, "w-seed1-trace1.chrome.json"), "w") as f:
                json.dump({"traceEvents": []}, f)
            recs = compare.load_results(d)
        self.assertEqual(len(recs), 1)
        self.assertEqual(recs[0]["seed"], 1)


if __name__ == "__main__":
    unittest.main()
