#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see benchmark/README.md).

One workload:
    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1
prints, as its last stdout line, one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1.  Every workload:
    python3 benchmark/run.py [--seed N] [--seconds S] [--smoke]
runs each workload with tracing on and prints a summary table.

Each run also writes a results file (metadata, raw per-rep values, checks,
metrics) under --out, default .bench_build/results, for compare.py.

Exit codes: 0 correct; 1 an output check failed; 2 usage, build or setup
error; 3 the binary is not a Release build.
"""

import argparse
import fcntl
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "revoke_bench")
WORKLOADS = ("open_revocation", "open_blocking", "paper_writes", "sharded2")
RUN_TIMEOUT_S = 170
PROCESS_SECONDS = 4
MIN_PROCESSES = 3
WALL_UNITS = ("s", "ns", "us", "1/s", "x", "MB")


class SetupError(Exception):
    pass


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise SetupError(f"cannot read {path}: {e}")


def build():
    """Configures (once) and builds the Release benchmark binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SetupError(f"library sources not found under {ROOT}/src")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, ".lock"), "w") as lock, open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD, "--target", "revoke_bench",
                      "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                raise SetupError(f"build failed: {' '.join(cmd)} (see {log_path})")


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(docs):
    """End-to-end metrics: set-up time over every timed rep, peak memory
    over processes, and the pooled tick figures of the first process, which
    every process reproduces."""
    ticks = docs[0]["ticks"]
    return {
        "setup_s": median([r["setup_s"] for d in docs for r in timed(d)]),
        "peak_rss_mb": median([d["peak_rss_mb"] for d in docs]),
        "hi_mean_ticks": ticks["hi_mean_ticks"],
        "hi_p99_ticks": ticks["hi_p99_ticks"],
        "lo_mean_ticks": ticks["lo_mean_ticks"],
    }


def per_layer(docs):
    """Per-layer metrics: the traced (first) process's ledger figures, plus
    the wall figures of every process's timed reps, each the median over
    processes of that process's figure (a mean over its reps, or a
    percentile pooled over them)."""
    def over(f):
        return median([f(d) for d in docs])
    layer = dict(docs[0]["layer"])
    layer["svc.sections_per_s"] = over(
        lambda d: mean_of(timed(d), "sections_per_s"))
    layer["svc.hi_mean_us"] = over(lambda d: d["wall"]["hi_mean_us"])
    layer["svc.hi_p99_us"] = over(lambda d: d["wall"]["hi_p99_us"])
    reps = [r for d in docs for r in timed(d)]
    one = mean_of([r for r in reps if "sections_per_s_1shard" in r],
                  "sections_per_s_1shard")
    layer["rt.shard_speedup"] = (
        mean_of(reps, "sections_per_s") / one if one else 0.0)
    return layer


def exact_metrics(spec, deterministic):
    """The metrics that repeat exactly for a seed: on a single-thread
    workload, every one that is not a wall time, a wall rate, memory or
    trace health, that is, the ticks and counts."""
    if not deterministic:
        return []
    return [m["name"] for kind in ("end_to_end", "per_layer")
            for m in spec[kind]
            if m["unit"] not in WALL_UNITS and not m["name"].startswith("trace.")]


def timed(doc):
    return [r for r in doc["reps"] if not r["warmup"]]


def mean_of(reps, key):
    return statistics.fmean(r[key] for r in reps) if reps else 0.0


def select(values, declared, default=None):
    """The declared metrics with their units.  A declared metric missing from
    `values` reads `default` (per-layer metrics a workload has no layer for
    read 0) or is an error; an undeclared one is always an error."""
    names = [m["name"] for m in declared]
    unknown = sorted(set(values) - set(names))
    if unknown:
        raise SetupError(f"metrics not in BENCHMARK.json: {', '.join(unknown)}")
    out = {}
    for m in declared:
        value = values.get(m["name"], default)
        if value is None:
            raise SetupError(f"metric {m['name']} is not produced")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def source_digest():
    """sha256 over the library and benchmark sources: names a revision even
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "benchmark"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else None


def run_process(cmd, workload):
    """Runs one benchmark process and returns its JSON document."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SetupError(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SetupError(f"{workload} exited with code {proc.returncode}")
    doc = json.loads(lines[-1])
    if doc["build_type"] != "Release" or not doc["ndebug"]:
        print(f"run.py: benchmark binary is a {doc['build_type']} build, "
              "not Release", file=sys.stderr)
        sys.exit(3)
    return doc


def run_workload(spec, workload, seed, seconds, trace, smoke, out_dir):
    """Runs one workload and returns (result line dict, results record).

    The run is split into up to five sequential processes of about
    PROCESS_SECONDS each: part of a wall figure is fixed per process (the
    same seed's throughput differed by up to 9% between processes), so the
    median over processes is steadier than any one process.  A process must
    finish its workload's cycle of rep seeds however long that takes, so
    once `seconds` have passed no process past the third starts: on a slow
    host paper_writes would otherwise run twice its time.  Only the first
    process runs the traced reps."""
    parts = max(1, min(5, round(seconds / PROCESS_SECONDS)))
    # Unique per run, so repeated runs of one seed all stay for compare.py.
    stem = f"{workload}-seed{seed}-trace{trace}-{time.time_ns()}"
    load = os.getloadavg()
    usage0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.monotonic()
    docs = []
    for p in range(parts):
        if p >= MIN_PROCESSES and time.monotonic() - start >= seconds:
            break
        traced = trace and p == 0
        cmd = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds / parts), "--trace", str(int(traced))]
        if smoke:
            cmd.append("--smoke")
        if traced:
            cmd += ["--trace-out", os.path.join(out_dir, stem + ".chrome.json")]
        docs.append(run_process(cmd, workload))
    usage1 = resource.getrusage(resource.RUSAGE_CHILDREN)

    checks = [dict(c, process=p) for p, d in enumerate(docs)
              for c in d["checks"]]
    if docs[0]["deterministic"]:
        same = all(d["ticks"] == docs[0]["ticks"] for d in docs)
        checks.append({"name": "processes.ticks_repeat", "ok": same,
                       "detail": "" if same else "processes differ in ticks",
                       "process": None})
    e2e = end_to_end(docs)
    layer = per_layer(docs) if trace else {}
    result = {
        "correct": all(c["ok"] for c in checks),
        "attempted": sum(int(d["attempted"]) for d in docs),
        "failed": sum(int(d["failed"]) for d in docs),
        "metrics": (select(layer, spec["per_layer"], default=0.0) if trace
                    else select(e2e, spec["end_to_end"])),
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "smoke": smoke, "time": time.time(),
        "git_revision": git_revision(), "source_digest": source_digest(),
        "compiler": docs[0]["compiler"], "build_type": docs[0]["build_type"],
        "nproc": os.cpu_count(), "loadavg": load,
        "cpu_user_s": usage1.ru_utime - usage0.ru_utime,
        "cpu_sys_s": usage1.ru_stime - usage0.ru_stime,
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "checks": checks,
        "end_to_end": e2e, "ticks": docs[0]["ticks"],
        "exact": exact_metrics(spec, docs[0]["deterministic"]),
        "per_layer": ({n: m["value"] for n, m in result["metrics"].items()}
                      if trace else {}),
        "processes": [{"peak_rss_mb": d["peak_rss_mb"], "wall": d["wall"],
                       "reps": d["reps"]} for d in docs],
    }
    with open(os.path.join(out_dir, stem + ".json"), "w") as f:
        json.dump(record, f, indent=1)
    return result, record


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true",
                    help="shrunken reps and 2 s per workload")
    ap.add_argument("--out", default=os.path.join(BUILD, "results"))
    args = ap.parse_args()

    try:
        spec = load_spec()
        seconds = args.seconds or (2 if args.smoke else spec["run_seconds"])
        build()
        os.makedirs(args.out, exist_ok=True)
        if args.workload:
            result, _ = run_workload(spec, args.workload, args.seed, seconds,
                                     args.trace or 0, args.smoke, args.out)
            print(json.dumps(result))
            return 0 if result["correct"] else 1

        ok = True
        for w in WORKLOADS:
            _, rec = run_workload(spec, w, args.seed, seconds, 1, args.smoke,
                                  args.out)
            ok = ok and rec["correct"]
            print(f"== {w}: correct={rec['correct']} "
                  f"attempted={rec['attempted']} failed={rec['failed']}")
            for c in rec["checks"]:
                if not c["ok"]:
                    print(f"   FAILED {c['name']}: {c['detail']}")
            for kind in ("end_to_end", "per_layer"):
                for m in spec[kind]:
                    print(f"   {m['name']:<32} "
                          f"{rec[kind].get(m['name'], 0.0):>14.6g} {m['unit']}")
        print(f"results in {args.out}")
        return 0 if ok else 1
    except SetupError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
