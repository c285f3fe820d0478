#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, summarised in BENCH_<N>.json.

Usage, from the root of a checkout:

    python3 scripts/bench_pairs.py --parent REV --number N [--seeds 10]

The committed files of revision REV (the parent) and of HEAD (the change)
are each extracted with `git archive` into a temporary directory, so both
sides start from alike fresh trees; uncommitted edits are not measured,
and the report says whether there were any.  For each seed S from 1 to
--seeds, `python3 bench/run.py --workload all --seed S --seconds T
--trace 0`, with T the `run_seconds` of `BENCHMARK.json`, runs once in
each copy, the parent first on odd seeds and the change first on even
ones, so slow drift of the host load falls on both sides alike.  The
per-workload, per-metric medians and quartiles of both sides, the number of
pairs in which the change is better (by the direction `BENCHMARK.json`
gives), and the `failed` counts of every run go to `BENCH_<N>.json` at the
repository root.  The file is rewritten after every pair, so an interrupted
run keeps the pairs it finished.  Standard library only; nothing in this
checkout is written but that file (each benchmark run writes its
`bench/out/` in its own temporary copy).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def extract(rev: str, dest: str) -> None:
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")


def side_trees(parent: str, change: str, workdir: str) -> dict[str, str]:
    """Extract the parent and change revisions into their own directories
    under `workdir`; the working tree is never one of them."""
    trees = {}
    for side, rev in (("parent", parent), ("change", change)):
        trees[side] = os.path.join(workdir, side)
        os.mkdir(trees[side])
        extract(rev, trees[side])
    return trees


def run_bench(tree: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", "all", "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: bench/run.py failed in {tree} on seed {seed}")
    results = {}
    for line in proc.stdout.splitlines():
        if line.startswith("{"):
            result = json.loads(line)
            results[result.pop("workload")] = result
    return results


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(runs: dict, better: dict) -> dict:
    """runs[side] is a list of {workload: result} in seed order."""
    out = {}
    for workload in runs["parent"][0]:
        entry = {"failed": {side: [r[workload]["failed"] for r in runs[side]] for side in runs},
                 "correct": {side: all(r[workload]["correct"] for r in runs[side])
                             for side in runs},
                 "metrics": {}}
        for metric, info in runs["parent"][0][workload]["metrics"].items():
            values = {side: [r[workload]["metrics"][metric]["value"] for r in runs[side]]
                      for side in runs}
            stats = {side: {**quartiles(values[side]), "values": values[side]} for side in runs}
            row = {"unit": info["unit"], **stats}
            if metric in better:
                sign = 1 if better[metric] == "higher" else -1
                row["better"] = better[metric]
                row["change_better_pairs"] = sum(
                    1 for p, c in zip(values["parent"], values["change"]) if sign * (c - p) > 0)
                row["ratio_of_medians"] = (stats["change"]["median"] / stats["parent"]["median"]
                                           if stats["parent"]["median"] else None)
            entry["metrics"][metric] = row
        out[workload] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--number", required=True, help="names the output file BENCH_<N>.json")
    parser.add_argument("--seeds", type=int, default=10, help="number of pairs")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")

    parent_sha = git("rev-parse", "--verify", f"{args.parent}^{{commit}}").decode().strip()
    head_sha = git("rev-parse", "HEAD").decode().strip()
    dirty = bool(git("status", "--porcelain", "--untracked-files=no").strip())
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    out_path = ROOT / f"BENCH_{args.number}.json"
    seeds = list(range(1, args.seeds + 1))
    runs: dict[str, list] = {"parent": [], "change": []}

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as workdir:
        trees = side_trees(parent_sha, head_sha, workdir)
        for seed in seeds:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                runs[side].append(run_bench(trees[side], seed, seconds))
                print(f"seed {seed} {side} done", file=sys.stderr, flush=True)
            report = {
                "command": f"python3 bench/run.py --workload all --seed S "
                           f"--seconds {seconds} --trace 0",
                "parent": parent_sha,
                "change": {"head": head_sha, "uncommitted_changes": dirty},
                "seeds": seeds[:len(runs["parent"])],
                "order": "parent first on odd seeds, change first on even seeds",
                "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                         "machine": platform.machine()},
                "workloads": summarise(runs, better),
            }
            out_path.write_text(json.dumps(report, indent=1) + "\n")
    print(out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
