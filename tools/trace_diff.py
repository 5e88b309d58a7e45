#!/usr/bin/env python3
"""Diff the searches of two rbpeb_cli builds on the perfbench DAGs.

Runs exact-astar on the perfbench `exact` DAGs and greedy-seeded
anytime-astar (at the perfbench state budgets) on its `anytime` DAGs, each
in all four models, with both binaries, and compares per run:

  stdout      with the wall-clock "(... ms)" of the status line masked;
  --trace     the produced pebbling, byte for byte;
  --progress  the JSONL snapshots (one per 1024 expansions) with the
              timing fields elapsed_us, expansions_per_sec and eta_us
              dropped;
  metrics     the `search.expanded` counter of --metrics-out.

A change that claims to keep searches byte-identical must print no
difference. Usage, from the root of a checkout:

    python3 tools/trace_diff.py OLD_CLI NEW_CLI [--work DIR] [--jobs N]
        [--exact-budget N] [--only SUBSTRING]

OLD_CLI and NEW_CLI are rbpeb_cli binaries (say, build/rbpeb_cli of a copy
of the parent commit and of the change). Exact runs stop at --exact-budget
states (default 300000), so the DAG × model pairs whose optimum is out of
reach still diff their first expansions. Exit status: 0 identical,
1 differences, 2 bad invocation or a run that crashed.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

MODELS = ("base", "oneshot", "nodel", "compcost")

# (id, instance spec, R, search, state budget) — the DAGs, red limits and
# anytime budgets of perfbench/src/solve_workloads.cpp.
CASES = (
    ("stencil2x20", "stencil:width=2,steps=20", 3, "exact-astar", None),
    ("stencil3x4", "stencil:width=3,steps=4", 4, "exact-astar", None),
    ("stencil3x6", "stencil:width=3,steps=6", 4, "exact-astar", None),
    ("tree8", "tree:leaves=8", 3, "exact-astar", None),
    ("layered4x3", "layered:layers=4,width=3", 3, "exact-astar", None),
    ("layered13x2", "layered:layers=13,width=2,seed=3", 3, "exact-astar",
     None),
    ("layered16x6", "layered:layers=16,width=6,indegree=2,seed=71", 3,
     "anytime-astar", 16000),
    ("layered24x8", "layered:layers=24,width=8,indegree=2,seed=64", 3,
     "anytime-astar", 8000),
    ("layered32x8", "layered:layers=32,width=8,indegree=2,seed=72", 3,
     "anytime-astar", 6000),
    ("stencil2x14", "stencil:width=2,steps=14", 3, "anytime-astar", 200000),
)

TIMING_FIELDS = ("elapsed_us", "expansions_per_sec", "eta_us")
WALL = re.compile(r"\(\d+(\.\d+)? ms\)")


def run(cli, case, model, out_dir, exact_budget):
    """One solve; returns {artifact name: normalized text}."""
    ident, spec, red, solver, budget = case
    stem = out_dir / f"{ident}.{model}"
    trace, progress, metrics = (Path(f"{stem}{suffix}")
                                for suffix in (".trace", ".progress", ".json"))
    for path in (trace, progress, metrics):
        path.unlink(missing_ok=True)
    cmd = [str(cli), "solve", "--instance", spec, str(red), "--model", model,
           "--solver", solver, "--budget-states",
           str(budget if budget is not None else exact_budget),
           "--trace", str(trace), "--progress=" + str(progress),
           "--progress-every-ms", "0", "--metrics-out", str(metrics)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=out_dir)
    if proc.returncode < 0:
        raise RuntimeError(f"{' '.join(cmd)}: signal {-proc.returncode}")
    stdout = WALL.sub("(<wall> ms)", proc.stdout).replace(str(out_dir), "<dir>")
    got = {"stdout": stdout,
           "trace": trace.read_text() if trace.exists() else "<none>"}
    lines = []
    if progress.exists():
        for line in progress.read_text().splitlines():
            snap = json.loads(line)
            for field in TIMING_FIELDS:
                snap.pop(field, None)
            lines.append(json.dumps(snap, sort_keys=True))
    got["progress"] = "\n".join(lines)
    expanded = "<none>"
    if metrics.exists():
        expanded = str(json.loads(metrics.read_text()).get("search.expanded"))
    got["search.expanded"] = expanded
    return got


def first_difference(a, b):
    for i, (x, y) in enumerate(zip(a.splitlines(), b.splitlines())):
        if x != y:
            return f"line {i + 1}:\n    old: {x[:200]}\n    new: {y[:200]}"
    return (f"line counts {len(a.splitlines())} vs {len(b.splitlines())}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old_cli", type=Path)
    parser.add_argument("new_cli", type=Path)
    parser.add_argument("--work", type=Path, default=None,
                        help="keep the outputs here (default: a temp dir)")
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--exact-budget", type=int, default=300000)
    parser.add_argument("--only", default="",
                        help="run only cases whose id contains this")
    args = parser.parse_args()
    for cli in (args.old_cli, args.new_cli):
        if not os.access(cli, os.X_OK):
            print(f"trace_diff: {cli} is not an executable", file=sys.stderr)
            return 2
    # The runs execute inside their output directories.
    args.old_cli, args.new_cli = args.old_cli.resolve(), args.new_cli.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or Path(tmp)
        dirs = {side: (work / side).resolve() for side in ("old", "new")}
        for d in dirs.values():
            d.mkdir(parents=True, exist_ok=True)
        jobs = [(case, model) for case in CASES for model in MODELS
                if args.only in case[0]]

        def both(job):
            case, model = job
            return job, [run(cli, case, model, dirs[side], args.exact_budget)
                         for cli, side in ((args.old_cli, "old"),
                                           (args.new_cli, "new"))]

        differences = 0
        try:
            with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
                for (case, model), (old, new) in pool.map(both, jobs):
                    name = f"{case[0]}.{model} ({case[3]})"
                    bad = [k for k in old if old[k] != new[k]]
                    if not bad:
                        print(f"same  {name}  expanded {new['search.expanded']}")
                        continue
                    differences += 1
                    for k in bad:
                        print(f"DIFF  {name}  {k}: "
                              f"{first_difference(old[k], new[k])}")
        except RuntimeError as error:
            print(f"trace_diff: {error}", file=sys.stderr)
            return 2
    print(f"{len(jobs) - differences} of {len(jobs)} runs identical")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
