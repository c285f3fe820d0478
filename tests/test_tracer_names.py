"""The benchmark reaches package functions by name; each must exist.

`bench/` is read, not imported: the tracer's `TRACED` table and the
worker's `MODULES` are literals, and the workloads and the worker reach
`lexsym` through attribute chains on the namespace `lx`, or on a local
alias of one of its modules such as `g = lx.graphs`.  A renamed or deleted
function then fails here instead of crashing a benchmark run.
"""

import ast
import importlib
from functools import reduce
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def literal(source: str, name: str):
    for node in ast.parse((BENCH / source).read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} in bench/{source}")


def chain(node) -> list:
    """`[a, b, c]` for the attribute chain `a.b.c` rooted at a name, else []."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.insert(0, node.attr)
        node = node.value
    return [node.id, *parts] if isinstance(node, ast.Name) else []


def benchmark_names() -> set:
    """Each `module.name...` that the workloads and the worker read from `lx`."""
    modules = literal("worker.py", "MODULES")
    names = set()
    for source in ("workloads.py", "worker.py"):
        for fn in ast.walk(ast.parse((BENCH / source).read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            roots = {"lx": []}
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign) and chain(node.value)[:1] == ["lx"]:
                    roots[node.targets[0].id] = chain(node.value)[1:]
            for node in ast.walk(fn):
                path = chain(node) if isinstance(node, ast.Attribute) else []
                if path and path[0] in roots:
                    path = roots[path[0]] + path[1:]
                    if path[0] in modules:
                        names.add(".".join(path))
    return names


def test_traced_functions_resolve():
    traced = literal("tracer.py", "TRACED")
    assert traced
    missing = [f"{module}.{fn}" for module, fns in traced.items() for fn in fns
               if not callable(getattr(importlib.import_module(f"lexsym.{module}"), fn, None))]
    assert missing == []


def test_benchmark_names_resolve():
    names = benchmark_names()
    # the alias `g = lx.graphs` and a chain through a class are both read
    assert {"graphs.disjoint_union", "graphs.Graph.from_edges", "cli.run"} <= names
    missing = []
    for name in sorted(names):
        module, *attrs = name.split(".")
        obj = reduce(lambda obj, attr: getattr(obj, attr, None), attrs,
                     importlib.import_module(f"lexsym.{module}"))
        if obj is None:
            missing.append(name)
    assert missing == []
