"""Spans and counters around the public functions of each `lexsym` layer.

The wrappers live here, not in the program: `install` replaces every
module-level binding of each traced function in every loaded `lexsym`
module (modules import these functions by name), and `uninstall` puts the
originals back.  Each call records a span (name, parent span, start, end);
self time is a span's duration minus the time its child spans cover.
`groups._search` is counted per call, without spans, because it runs once
per node of the backtracking search.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

TRACED = {
    "graphs": ("lex_product",),
    "census": ("unlabelled_graphs",),
    "wl": ("stable_colouring", "refine_step"),
    "groups": ("aut_order", "automorphisms", "is_isomorphic", "is_vertex_transitive"),
    "analysis": ("analyze_product", "verify_wl_separation", "sabidussi_conditions"),
    "decompose": ("qut_expression", "analyze_vt_product", "qut_disjoint_union"),
    "expressions": ("simplify", "serialize"),
    "formats": ("parse_graph", "write_graph"),
    "sweeps": ("sabidussi_sweep",),
    "cli": ("run",),
}
CALL_COUNTS = ("graphs.lex_product", "wl.stable_colouring", "wl.refine_step",
               "groups.aut_order", "groups.is_isomorphic")
COUNTERS = ("census.iso_tests", "wl.pairs_refined", "wl.stable_classes",
            "groups.search_nodes")


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = [f"{name}.calls" for name in CALL_COUNTS]
    names += [f"{module}.{fn}.self_s" for module, fns in TRACED.items() for fn in fns]
    return names + list(COUNTERS)


class Tracer:
    def __init__(self, lx):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, parent span index, start, end]
        self.counters: Counter = Counter()
        self.enabled = False
        self._stack: list[int] = []
        self._census_depth = 0
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers = {}  # id(original) -> (original, wrapper)
        for module, fns in TRACED.items():
            for fn in fns:
                original = getattr(getattr(lx, module), fn)
                self._wrappers[id(original)] = (original, self._wrap(f"{module}.{fn}", original))
        search = getattr(lx.groups, "_search", None)
        if search is not None:
            self._wrappers[id(search)] = (search, self._count_nodes(search))

    def install(self) -> None:
        wrappers = self._wrappers
        for name, module in list(sys.modules.items()):
            if not name.startswith("lexsym"):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        spans, stack, counters = self.spans, self._stack, self.counters
        post = {
            "wl.refine_step": lambda args, result: counters.update(
                {"wl.pairs_refined": args[0].n * args[0].n}),
            "wl.stable_colouring": lambda args, result: counters.update(
                {"wl.stable_classes": result.stable.num_colours}),
        }.get(name)
        is_census = name == "census.unlabelled_graphs"
        is_iso = name == "groups.is_isomorphic"

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if is_iso and self._census_depth:
                counters["census.iso_tests"] += 1
            span = [index, stack[-1] if stack else -1, perf_counter(), 0.0]
            spans.append(span)
            stack.append(len(spans) - 1)
            self._census_depth += is_census
            try:
                result = fn(*args, **kwargs)
            finally:
                self._census_depth -= is_census
                stack.pop()
                span[3] = perf_counter()
            if post is not None:
                post(args, result)
            return result

        return wrapper

    def _count_nodes(self, fn):
        counters = self.counters

        def counting(*args, **kwargs):
            if self.enabled:
                counters["groups.search_nodes"] += 1
            return fn(*args, **kwargs)

        return counting

    def summary(self, start: int = 0, end: int | None = None) -> dict:
        """Per-name call counts and self times of the spans in [start, end)."""
        spans = self.spans[start:end]
        child_time = [0.0] * len(spans)
        for span in spans:
            parent = span[1] - start
            if parent >= 0:
                child_time[parent] += span[3] - span[2]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i, (index, _, t0, t1) in enumerate(spans):
            calls[self.names[index]] += 1
            self_s[self.names[index]] += t1 - t0 - child_time[i]
        return {"calls": calls, "self_s": self_s}

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans}
