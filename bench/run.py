"""lexsym benchmark: run one workload, check its outputs, print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload separation|survey|queries|all \
        --seed N --seconds S --trace 0|1

The workload runs in a fresh, single-threaded `worker.py` process that
imports only `lexsym` (from `src/`) and the standard library.  This process
then checks the recorded outputs against the `networkx` references in
`checks.py`, writes the full result to `bench/out/`, and prints, as the
last line of standard output, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones, with `--trace 1` the per-layer ones.  `--workload all`
runs every workload in turn and prints one such line for each, with a
`workload` key added.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from checks import check

HERE = Path(__file__).resolve().parent
WORKLOADS = ("separation", "survey", "queries")
WORKER_TIMEOUT_S = 150


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"error: {workload} worker ran past {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(proc.returncode)
    payload = json.loads(proc.stdout.splitlines()[-1])
    problems, failures = check(payload)
    for problem in problems[:20]:
        print(f"{workload}: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(payload["outputs"]),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in payload["metrics"].items()},
    }
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    with open(out / f"result-{workload}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds,
                   "rounds": payload["rounds"], "items_per_round": payload["items_per_round"],
                   "problems": problems, "failures": failures, **result}, fh, indent=1)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        if len(names) > 1:
            result = {"workload": name, **result}
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
