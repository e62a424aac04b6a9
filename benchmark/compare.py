#!/usr/bin/env python3
"""Compares two sets of benchmark results, metric by metric.

    python3 benchmark/compare.py BASE_DIR NEW_DIR

Each directory holds results files written by run.py (--out).  End-to-end
metrics come from untraced runs (trace 0), per-layer metrics from traced
runs (trace 1).  Every run is kept; runs pair up by (workload, seed), a seed
run more than once on a side standing for the median of its runs.  For
every workload and metric the report gives each side's median and quartiles
over its runs, the share of pairs the new side wins (ties count for
neither), and a verdict:

  unresolved  fewer than ten pairs; or neither of the below, and the base
              side's own quartile spread is wider than the bound, unless
              every new run reads better than every base run;
  improved    the new side wins at least 9/10 of the pairs and the medians
              differ, in the better direction, by more than the distance
              between the base side's quartiles;
  regressed   the new median is worse than the base median by more than
              the metric's bound (BENCHMARK.json); for a per-layer metric,
              which has no bound, the mirror of `improved`;
  unchanged   otherwise.

A metric every run marks exact (a tick or count of a single-thread
workload, which repeats exactly for a seed) has bound 0 and no spread
between repeats, so it is judged seed by seed: regressed when any pair reads
worse, improved when none does and the new side wins 9/10 of the pairs.

Exits 1 when any metric regressed, else 0.
"""

import argparse
import collections
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
MIN_PAIRS = 10


def load_results(directory):
    """Every run.py results file in `directory` (Chrome traces skipped)."""
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        if path.endswith(".chrome.json"):
            continue
        with open(path) as f:
            rec = json.load(f)
        if "workload" in rec and "end_to_end" in rec:
            records.append(rec)
    return records


def samples(records, kind):
    """({(workload, metric): {seed: [value, ...]}}, {(workload, metric):
    exact}) over the runs of kind end_to_end / per_layer."""
    want_trace = 1 if kind == "per_layer" else 0
    values = collections.defaultdict(lambda: collections.defaultdict(list))
    exact = {}
    for rec in records:
        if rec["trace"] != want_trace:
            continue
        marked = set(rec.get("exact", ()))
        for name, value in rec[kind].items():
            key = (rec["workload"], name)
            values[key][rec["seed"]].append(value)
            exact[key] = exact.get(key, True) and name in marked
    return values, exact


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def judge(base, new, better, bound, exact=False):
    """Verdict for one metric; base/new map seed -> list of run values."""
    sign = 1.0 if better == "higher" else -1.0
    base_runs = sorted(v for runs in base.values() for v in runs)
    new_runs = sorted(v for runs in new.values() for v in runs)
    b_q1, b_med, b_q3 = quartiles(base_runs)
    n_q1, n_med, n_q3 = quartiles(new_runs)
    seeds = sorted(set(base) & set(new))
    diffs = [sign * (statistics.median(new[s]) - statistics.median(base[s]))
             for s in seeds]
    wins = sum(1 for d in diffs if d > 0)
    losses = sum(1 for d in diffs if d < 0)
    pairs = len(seeds)
    gain = sign * (n_med - b_med)  # > 0: the new side is better
    iqr = b_q3 - b_q1
    scale = abs(b_med) if b_med else 1.0
    all_better = all(sign * (n - b) > 0 for n in new_runs for b in base_runs)

    if pairs < MIN_PAIRS:
        verdict = "unresolved"
    elif exact:
        if losses:
            verdict = "regressed"
        elif wins >= 0.9 * pairs and gain > 0:
            verdict = "improved"
        else:
            verdict = "unchanged"
    elif wins >= 0.9 * pairs and gain > iqr:
        verdict = "improved"
    elif bound is not None and -gain > bound * scale:
        verdict = "regressed"
    elif bound is None and losses >= 0.9 * pairs and -gain > iqr:
        verdict = "regressed"
    elif bound is not None and iqr > bound * scale and not all_better:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return {
        "base": (b_q1, b_med, b_q3), "new": (n_q1, n_med, n_q3),
        "change": (n_med - b_med) / scale, "wins": wins, "pairs": pairs,
        "exact": exact, "verdict": verdict,
    }


def compare(base_records, new_records, spec):
    rows = []
    for kind in ("end_to_end", "per_layer"):
        declared = {m["name"]: m for m in spec[kind]}
        base, base_exact = samples(base_records, kind)
        new, new_exact = samples(new_records, kind)
        for key in sorted(set(base) & set(new)):
            workload, name = key
            if name not in declared:
                continue
            m = declared[name]
            row = judge(base[key], new[key], m["better"], m.get("bound"),
                        base_exact[key] and new_exact[key])
            row.update(workload=workload, metric=name, kind=kind)
            rows.append(row)
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args()
    with open(SPEC) as f:
        spec = json.load(f)
    rows = compare(load_results(args.base), load_results(args.new), spec)
    if not rows:
        print("compare.py: no metric present on both sides", file=sys.stderr)
        return 2
    fmt = "{:<16} {:<28} {:>36} {:>36} {:>8} {:>6}  {}"
    print(fmt.format("workload", "metric", "base median [q1, q3]",
                     "new median [q1, q3]", "change", "wins", "verdict"))
    for r in rows:
        b, n = r["base"], r["new"]
        print(fmt.format(
            r["workload"], r["metric"],
            f"{b[1]:.6g} [{b[0]:.6g}, {b[2]:.6g}]",
            f"{n[1]:.6g} [{n[0]:.6g}, {n[2]:.6g}]",
            f"{100 * r['change']:+.1f}%", f"{r['wins']}/{r['pairs']}",
            r["verdict"] + (" (exact)" if r["exact"] else "")))
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
