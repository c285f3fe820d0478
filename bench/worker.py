"""Run one workload in this fresh, single-threaded process.

Usage: python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1

Imports `lexsym` from the `src/` directory next to `bench/` and nothing
else outside the standard library, so peak memory is the program's own.
Prints one JSON payload (timings, counters and the recorded outputs) for
`run.py`, which checks the outputs against the references.

Untraced runs set up `setup_reps` times (each a fresh import of `lexsym`,
the census and the inputs) and report the median, then run whole rounds
of the fixed item list, as many as fill `--seconds` at the workload's
nominal round time.  Traced runs set up once under the tracer, time one
untraced round as the overhead base, then run the traced rounds.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from tracer import COUNTERS, CALL_COUNTS, TRACED, Tracer
from workloads import Queries, Separation, Survey

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
MODULES = ("graphs", "formats", "wl", "groups", "census", "analysis",
           "decompose", "expressions", "sweeps", "cli")


def import_lexsym() -> SimpleNamespace:
    """A fresh import of every `lexsym` module, from SRC only."""
    for name in [m for m in sys.modules if m == "lexsym" or m.startswith("lexsym.")]:
        del sys.modules[name]
    lx = SimpleNamespace(**{m: importlib.import_module(f"lexsym.{m}") for m in MODULES})
    if Path(lx.graphs.__file__).resolve().parent != SRC / "lexsym":
        raise SystemExit(f"error: lexsym imported from {lx.graphs.__file__}, not {SRC}")
    # Taken before any tracer wraps the census.
    lx.clear_census = getattr(lx.census.unlabelled_graphs, "cache_clear", lambda: None)
    return lx


def peak_rss_mb() -> float:
    """Peak resident set of this process since it started running Python.

    VmHWM belongs to the address space made at exec, whereas `ru_maxrss`
    also counts the parent's resident set at fork time."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def measure(workload, lx, state: dict, rounds: int, tracer: Tracer | None = None):
    """`rounds` whole rounds of the item list.  Only `workload.call` is
    timed and traced."""
    items = state["items"]
    durations, outputs = [], []
    gc.collect()
    for _ in range(rounds):
        for item in items:
            if tracer is not None:
                tracer.enabled = True
            t0 = perf_counter()
            result = workload.call(lx, state, item)
            durations.append(perf_counter() - t0)
            if tracer is not None:
                tracer.enabled = False
            outputs.append(workload.record(lx, state, item, result))
    return durations, outputs


def round_count(workload, seconds: float) -> int:
    """Whole rounds that fill `seconds` at the workload's nominal round
    time.  Fixing the count, rather than watching the clock, keeps the
    same work in every run whatever the load on the machine."""
    return max(1, round(seconds / workload.round_s))


def timed_run(workload, seed: int, seconds: float) -> dict:
    setups = []
    for _ in range(workload.setup_reps):
        gc.collect()
        t0 = perf_counter()
        lx = import_lexsym()
        state = workload.setup(lx, seed)
        setups.append(perf_counter() - t0)
    rounds = round_count(workload, seconds)
    durations, outputs = measure(workload, lx, state, rounds)
    peak_mb = peak_rss_mb()
    # Each item's time is its median over the rounds, which keeps a round
    # slowed by other load on the machine from moving the figures.
    n = len(state["items"])
    per_item = [statistics.median(durations[i::n]) for i in range(n)]
    metrics = {
        "items_per_s": (n / sum(per_item), "1/s"),
        "item_p50_ms": (percentile(per_item, 50) * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return {"rounds": rounds, "outputs": outputs, "metrics": metrics,
            **workload.reference(state)}


def traced_run(workload, seed: int, seconds: float) -> dict:
    lx = import_lexsym()
    tracer = Tracer(lx)
    tracer.install()
    tracer.enabled = True
    state = workload.setup(lx, seed)
    tracer.enabled = False
    tracer.uninstall()
    setup_spans = len(tracer.spans)
    setup_counters = dict(tracer.counters)

    base_durations, base_outputs = measure(workload, lx, state, 1)
    rounds = round_count(workload, seconds)
    tracer.install()
    durations, outputs = measure(workload, lx, state, rounds, tracer)
    tracer.uninstall()

    setup = tracer.summary(0, setup_spans)
    per_round = tracer.summary(setup_spans)

    def total(part: str, name: str) -> float:
        return setup[part][name] + per_round[part][name] / rounds

    metrics = {f"{name}.calls": (total("calls", name), "count") for name in CALL_COUNTS}
    for module, fns in TRACED.items():
        for fn in fns:
            name = f"{module}.{fn}"
            metrics[f"{name}.self_s"] = (total("self_s", name), "s")
    for name in COUNTERS:
        in_rounds = tracer.counters[name] - setup_counters.get(name, 0)
        metrics[name] = (setup_counters.get(name, 0) + in_rounds / rounds, "count")
    traced_round_s = sum(durations) / rounds
    metrics["trace.overhead_pct"] = (100 * (traced_round_s / sum(base_durations) - 1), "%")

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{workload.name}-seed{seed}.json", "w") as fh:
        json.dump({"setup_spans": setup_spans, "rounds": rounds, **tracer.dump()}, fh)
    return {"rounds": rounds + 1, "outputs": base_outputs + outputs, "metrics": metrics,
            **workload.reference(state)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("separation", "survey", "queries"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lexsym" / "__init__.py").is_file():
        print(f"error: no lexsym package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    inputs_dir = tempfile.mkdtemp(prefix="inputs-", dir=OUT)
    try:
        workload = {"separation": Separation, "survey": Survey,
                    "queries": lambda: Queries(inputs_dir)}[args.workload]()
        run = traced_run if args.trace else timed_run
        payload = run(workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(inputs_dir)
    payload.update(workload=args.workload, seed=args.seed, trace=args.trace,
                   items_per_round=len(payload["outputs"]) // payload["rounds"])
    sys.stdout.write(json.dumps(payload) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
