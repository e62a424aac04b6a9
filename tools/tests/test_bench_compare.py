#!/usr/bin/env python3
"""Unit tests for tools/bench_compare.py's comparison and failure modes.

Covers the contract CI leans on: clean exit on within-threshold results,
exit 1 naming the benchmark on a regression, and exit 2 with a clear
one-line message (no stack trace) on malformed JSON, unreadable files,
missing keys, and a baseline without a "benchmarks" key.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

BENCH_COMPARE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             os.pardir, "bench_compare.py")


def bench_json(name="rvk_bench", real_time=100.0, unit="ns", **extra):
    entry = {"name": name, "real_time": real_time, "time_unit": unit,
             "run_type": "iteration"}
    entry.update(extra)
    return {"benchmarks": [entry]}


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory(prefix="bench_compare_test_")
        self.addCleanup(self.tmp.cleanup)

    def path(self, name, content):
        p = os.path.join(self.tmp.name, name)
        with open(p, "w") as f:
            f.write(content if isinstance(content, str)
                    else json.dumps(content))
        return p

    def run_tool(self, *argv):
        return subprocess.run([sys.executable, BENCH_COMPARE, *argv],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)

    def test_within_threshold_passes(self):
        results = self.path("r.json", bench_json(real_time=150.0))
        base = self.path("b.json", {"benchmarks": {"rvk_bench": 100.0}})
        proc = self.run_tool(results, "--baseline", base)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("within threshold", proc.stdout)

    def test_regression_fails_naming_benchmark(self):
        results = self.path("r.json", bench_json(real_time=500.0))
        base = self.path("b.json", {"benchmarks": {"rvk_bench": 100.0}})
        proc = self.run_tool(results, "--baseline", base)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("rvk_bench", proc.stderr)

    def test_trailing_footer_tolerated(self):
        doc = json.dumps(bench_json()) + "\nExpected shape: flat\n"
        results = self.path("r.json", doc)
        base = self.path("b.json", {"benchmarks": {"rvk_bench": 100.0}})
        proc = self.run_tool(results, "--baseline", base)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def assert_clean_error(self, proc, *needles):
        self.assertEqual(proc.returncode, 2, proc.stderr)
        self.assertNotIn("Traceback", proc.stderr)
        self.assertTrue(proc.stderr.startswith("bench_compare:"), proc.stderr)
        for needle in needles:
            self.assertIn(needle, proc.stderr)

    def test_malformed_results_json(self):
        results = self.path("r.json", "{not json")
        base = self.path("b.json", {"benchmarks": {}})
        proc = self.run_tool(results, "--baseline", base)
        self.assert_clean_error(proc, "malformed JSON", "r.json")

    def test_missing_results_file(self):
        base = self.path("b.json", {"benchmarks": {}})
        proc = self.run_tool(os.path.join(self.tmp.name, "absent.json"),
                             "--baseline", base)
        self.assert_clean_error(proc, "absent.json")

    def test_benchmark_missing_real_time_names_benchmark(self):
        doc = {"benchmarks": [{"name": "rvk_bench", "run_type": "iteration"}]}
        results = self.path("r.json", doc)
        base = self.path("b.json", {"benchmarks": {"rvk_bench": 100.0}})
        proc = self.run_tool(results, "--baseline", base)
        self.assert_clean_error(proc, "rvk_bench", "real_time")

    def test_malformed_baseline_json(self):
        results = self.path("r.json", bench_json())
        base = self.path("b.json", "][")
        proc = self.run_tool(results, "--baseline", base)
        self.assert_clean_error(proc, "malformed JSON", "b.json")

    def test_baseline_missing_benchmarks_key(self):
        results = self.path("r.json", bench_json())
        base = self.path("b.json", {"_comment": "oops"})
        proc = self.run_tool(results, "--baseline", base)
        self.assert_clean_error(proc, "benchmarks", "b.json")

    def test_missing_baseline_file(self):
        results = self.path("r.json", bench_json())
        proc = self.run_tool(results, "--baseline",
                             os.path.join(self.tmp.name, "nope.json"))
        self.assert_clean_error(proc, "nope.json")

    def test_histogram_entries_gate_on_p99(self):
        # obs::Registry export shape (BENCH_macro_open.json): histograms are
        # gated on their p99, counters are informational and skipped.
        doc = {"benchmarks": [
            {"name": "macro/gold.latency", "run_type": "histogram",
             "count": 10, "mean": 5.0, "p50": 4, "p95": 8, "p99": 300,
             "p999": 300, "max": 310},
            {"name": "macro/gold.completed", "run_type": "counter",
             "value": 10},
        ]}
        results = self.path("r.json", doc)
        base = self.path("b.json",
                         {"benchmarks": {"macro/gold.latency": 100.0}})
        proc = self.run_tool(results, "--baseline", base)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("macro/gold.latency", proc.stderr)
        self.assertNotIn("gold.completed", proc.stdout)  # counter skipped

        ok = self.path("b2.json",
                       {"benchmarks": {"macro/gold.latency": 250.0}})
        proc = self.run_tool(results, "--baseline", ok)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_histogram_missing_p99_names_benchmark(self):
        doc = {"benchmarks": [{"name": "macro/gold.latency",
                               "run_type": "histogram", "count": 1}]}
        results = self.path("r.json", doc)
        base = self.path("b.json", {"benchmarks": {}})
        proc = self.run_tool(results, "--baseline", base)
        self.assert_clean_error(proc, "macro/gold.latency", "p99")

    def test_absent_benchmark_reported_not_fatal(self):
        # Documented contract: baseline entries not measured are reported
        # but never fail the run.
        results = self.path("r.json", bench_json())
        base = self.path("b.json", {"benchmarks": {"rvk_bench": 100.0,
                                                   "rvk_other": 50.0}})
        proc = self.run_tool(results, "--baseline", base)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("absent", proc.stdout)

    @staticmethod
    def two_bench_json(a=20.0, b=4.0, reps=1):
        return {"benchmarks": [
            {"name": name, "real_time": t * (1 + i), "time_unit": "ns",
             "run_type": "iteration"}
            for name, t in (("num", a), ("den", b)) for i in range(reps)]}

    def test_ratio_within_bound_passes_and_beyond_fails(self):
        results = self.path("r.json", self.two_bench_json())
        ok = self.path("b.json", {"benchmarks": {}, "ratios": [
            {"num": "num", "den": "den", "max": 6.0}]})
        proc = self.run_tool(results, "--baseline", ok)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("num / den: 5.00", proc.stdout)
        tight = self.path("b2.json", {"benchmarks": {}, "ratios": [
            {"num": "num", "den": "den", "max": 4.0}]})
        proc = self.run_tool(results, "--baseline", tight)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("num / den", proc.stderr)

    def test_ratio_reads_fastest_repetitions(self):
        # Repetitions 20/40/60 over 4/8/12: the gate reads 20 / 4.
        results = self.path("r.json",
                            self.two_bench_json(reps=3))
        base = self.path("b.json", {"benchmarks": {"num": 20.0}, "ratios": [
            {"num": "num", "den": "den", "max": 5.0}]})
        proc = self.run_tool(results, "--baseline", base)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("num: 20.0 vs baseline", proc.stdout)

    def test_ratio_with_unmeasured_operand_is_reported_not_fatal(self):
        results = self.path("r.json", bench_json())
        base = self.path("b.json", {"benchmarks": {}, "ratios": [
            {"num": "rvk_bench", "den": "gone", "max": 1.0}]})
        proc = self.run_tool(results, "--baseline", base)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("ratio operands not measured", proc.stdout)

    def test_malformed_ratio_is_a_clean_error(self):
        results = self.path("r.json", bench_json())
        base = self.path("b.json", {"benchmarks": {}, "ratios": [
            {"num": "rvk_bench", "max": 1.0}]})
        proc = self.run_tool(results, "--baseline", base)
        self.assert_clean_error(proc, "ratio #0", "b.json")

    def test_update_keeps_ratios_and_drops_ratio_gated_entries(self):
        results = self.path("r.json", self.two_bench_json())
        ratios = [{"num": "num", "den": "den", "max": 6.0}]
        base = self.path("b.json", {"benchmarks": {"num": 1.0},
                                    "ratios": ratios})
        proc = self.run_tool(results, "--baseline", base, "--update")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        with open(base) as f:
            data = json.load(f)
        self.assertEqual(data["ratios"], ratios)
        self.assertEqual(data["benchmarks"], {"den": 4.0})


if __name__ == "__main__":
    unittest.main(verbosity=2)
