#!/usr/bin/env python3
"""rbpeb benchmark: build, run one workload, print the result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exact|anytime|serve \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (its own CMake package over the library sources in src/)
into .bench_build/perfbench, or into $CARGO_TARGET_DIR/perfbench when that
is set, then runs the workload in one process. The last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer metrics
with --trace 1 (a layer the workload does not run reports 0). The traced
run also writes its spans to <build dir>/traces/<workload>-<seed>.jsonl.

Exits non-zero, without a result line, when the build or the run fails, and
with the result line but non-zero when an output check failed.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("exact", "anytime", "serve")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configure once, then build incrementally. Returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            return None
    step = ["cmake", "--build", str(out), "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        return None
    binary = out / "rbpeb_perfbench"
    return binary if binary.exists() else None


def source_rev():
    """Content hash of the sources the benchmark builds (the checkout it
    runs in need not be a git repository)."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    if binary is None:
        log("build failed")
        return 1
    declared = declared_metrics(args.trace)

    work_dir = out / f"work-{os.getpid()}"
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(work_dir),
               "--trace-dir", str(out / "traces"), "--rev", source_rev()]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"workload did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"no result line (exit code {proc.returncode})")
        return 1

    measured = result["metrics"]
    metrics = {}
    for metric in declared:
        name = metric["name"]
        entry = measured.get(name)
        if entry is None:
            if not args.trace:
                log(f"end-to-end metric {name} missing")
                return 1
            entry = {"value": 0, "unit": metric["unit"]}
        if entry["unit"] != metric["unit"] or not math.isfinite(entry["value"]):
            log(f"metric {name}: bad value or unit {entry}")
            return 1
        metrics[name] = entry
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
