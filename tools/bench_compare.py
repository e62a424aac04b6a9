#!/usr/bin/env python3
"""Compare google-benchmark JSON output against a checked-in baseline.

Usage:
    tools/bench_compare.py BENCH_micro_uncontended.json [more.json ...] \
        [--baseline results/bench_baseline.json] [--threshold 2.0]

The baseline maps benchmark name -> expected value: real_time in ns for
google-benchmark iteration entries, p99 (in the benchmark's own unit —
virtual ticks for the macro registry exports) for "histogram" entries.
Registry "counter" entries are informational and skipped.  A benchmark
run with --benchmark_repetitions is gated on its fastest repetition, the
one a shared host disturbed least.  A benchmark regresses if its measured
value exceeds baseline * threshold.  The threshold is deliberately
generous (default 2.0x): CI runners are noisy, shared, and of assorted
vintages, so this is a smoke test for order-of-magnitude regressions (a
fast path falling off its fast path), not a performance gate.
(Histogram entries from the deterministic virtual-clock macrobenches
reproduce exactly, so for them even 2.0x is a real tail-latency gate.)

The baseline's optional "ratios" list gates pairs measured in the same
run instead: {"num": A, "den": B, "max": M} regresses if A / B > M.  A
ratio of two benchmarks that do similar work cancels most of what
differs between hosts, so it stays meaningful where an absolute
nanosecond figure from another machine does not.  Its bound is absolute
(the threshold does not apply); set it from the spread of repeated runs.
A benchmark gated by a ratio has no absolute entry.

Benchmarks missing from the baseline are reported but never fail the
run, so adding a benchmark does not require touching the baseline in the
same change; a ratio whose operands were not measured is reported the
same way.  Refresh the absolute entries with --update after an
intentional perf change (run on a quiet machine, Release build); it
keeps the ratio list as it is.
"""

import argparse
import json
import os
import sys


class BenchDataError(Exception):
    """A results or baseline file is unreadable, malformed, or incomplete."""


def load_results(path):
    """Return {benchmark name: gated value} from benchmark JSON.

    Accepts both google-benchmark output (iteration entries gated on
    real_time, normalized to ns) and the obs::Registry export shape
    (BENCH_macro_open.json: "histogram" entries gated on their p99,
    "counter" entries skipped).

    The bench binaries print a human-readable "Expected shape" footer after
    the JSON document (both go to stdout), so parse with raw_decode and
    ignore trailing text.  Raises BenchDataError, naming the file and the
    offending benchmark, on anything short of well-formed data.
    """
    try:
        with open(path) as f:
            data, _ = json.JSONDecoder().raw_decode(f.read())
    except OSError as e:
        raise BenchDataError(f"cannot read {path}: {e.strerror}")
    except ValueError as e:
        raise BenchDataError(f"malformed JSON in {path}: {e}")
    if not isinstance(data, dict):
        raise BenchDataError(f"malformed JSON in {path}: expected an object, "
                             f"got {type(data).__name__}")
    out = {}
    for i, b in enumerate(data.get("benchmarks", [])):
        if b.get("run_type") in ("aggregate", "counter"):
            continue
        name = b.get("name")
        if name is None:
            raise BenchDataError(
                f"{path}: benchmark entry #{i} has no \"name\" key")
        if b.get("run_type") == "histogram":
            try:
                out[name] = float(b["p99"])
            except KeyError:
                raise BenchDataError(
                    f"{path}: histogram {name!r} has no \"p99\" key")
            except (TypeError, ValueError):
                raise BenchDataError(
                    f"{path}: histogram {name!r} has non-numeric p99 "
                    f"{b['p99']!r}")
            continue
        unit = b.get("time_unit", "ns")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}.get(unit)
        if scale is None:
            raise BenchDataError(
                f"{path}: benchmark {name!r} has unknown time_unit {unit!r}")
        try:
            ns = float(b["real_time"]) * scale
        except KeyError:
            raise BenchDataError(
                f"{path}: benchmark {name!r} has no \"real_time\" key")
        except (TypeError, ValueError):
            raise BenchDataError(
                f"{path}: benchmark {name!r} has non-numeric real_time "
                f"{b['real_time']!r}")
        out[name] = min(ns, out.get(name, ns))  # fastest repetition
    return out


def load_baseline(path):
    """Return (name -> ns mapping, ratio list), or raise BenchDataError."""
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as e:
        raise BenchDataError(f"cannot read baseline {path}: {e.strerror}")
    except ValueError as e:
        raise BenchDataError(f"malformed JSON in baseline {path}: {e}")
    if not isinstance(data, dict) or "benchmarks" not in data:
        raise BenchDataError(
            f"baseline {path} has no \"benchmarks\" key (regenerate it "
            f"with --update)")
    baseline = data["benchmarks"]
    for name, ns in baseline.items():
        if not isinstance(ns, (int, float)):
            raise BenchDataError(
                f"baseline {path}: benchmark {name!r} has non-numeric "
                f"value {ns!r}")
    ratios = data.get("ratios", [])
    for i, r in enumerate(ratios):
        if (not isinstance(r, dict) or not isinstance(r.get("num"), str)
                or not isinstance(r.get("den"), str)
                or not isinstance(r.get("max"), (int, float))):
            raise BenchDataError(
                f"baseline {path}: ratio #{i} needs string \"num\" and "
                f"\"den\" and a numeric \"max\"")
    return baseline, ratios


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("results", nargs="+", help="google-benchmark JSON files")
    ap.add_argument("--baseline", default="results/bench_baseline.json")
    ap.add_argument("--threshold", type=float, default=2.0,
                    help="fail if measured > baseline * threshold")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the baseline from these results and exit")
    args = ap.parse_args()

    try:
        measured = {}
        for path in args.results:
            measured.update(load_results(path))
    except BenchDataError as e:
        print(f"bench_compare: {e}", file=sys.stderr)
        return 2
    if not measured:
        print("bench_compare: no benchmarks found in inputs", file=sys.stderr)
        return 1

    if args.update:
        ratios = []
        if os.path.exists(args.baseline):
            try:
                _, ratios = load_baseline(args.baseline)
            except BenchDataError as e:
                print(f"bench_compare: {e}", file=sys.stderr)
                return 2
        ratio_gated = {r["num"] for r in ratios}
        entries = {k: round(v, 1) for k, v in sorted(measured.items())
                   if k not in ratio_gated}
        doc = {"_comment": "real_time ns (iterations) / p99 (histograms); "
                           "ratios: same-run num/den <= max; see "
                           "tools/bench_compare.py",
               "benchmarks": entries}
        if ratios:
            doc["ratios"] = ratios
        with open(args.baseline, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        print(f"bench_compare: wrote {len(entries)} entries to "
              f"{args.baseline}")
        return 0

    try:
        baseline, ratios = load_baseline(args.baseline)
    except BenchDataError as e:
        print(f"bench_compare: {e}", file=sys.stderr)
        return 2

    failures = []
    for name, base_ns in sorted(baseline.items()):
        if name not in measured:
            print(f"  [absent ] {name} (in baseline, not measured)")
            continue
        got = measured[name]
        ratio = got / base_ns if base_ns > 0 else float("inf")
        status = "ok" if ratio <= args.threshold else "REGRESS"
        print(f"  [{status:7s}] {name}: {got:.1f} vs baseline "
              f"{base_ns:.1f} ({ratio:.2f}x)")
        if ratio > args.threshold:
            failures.append(name)
    for r in ratios:
        label = f"{r['num']} / {r['den']}"
        if r["num"] not in measured or r["den"] not in measured:
            print(f"  [absent ] {label} (ratio operands not measured)")
            continue
        den = measured[r["den"]]
        got = measured[r["num"]] / den if den > 0 else float("inf")
        status = "ok" if got <= r["max"] else "REGRESS"
        print(f"  [{status:7s}] {label}: {got:.2f} vs max {r['max']:.2f}")
        if got > r["max"]:
            failures.append(label)
    ratio_gated = {r["num"] for r in ratios}
    for name in sorted(set(measured) - set(baseline) - ratio_gated):
        print(f"  [new    ] {name}: {measured[name]:.1f} (not in baseline)")

    if failures:
        print(f"bench_compare: {len(failures)} regression(s) beyond "
              f"{args.threshold}x or a ratio bound: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    print("bench_compare: all benchmarks within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
