"""The benchmark tracer wraps package functions by name; each must exist.

`bench/tracer.py` is read, not imported: its `TRACED` table is a literal.
A renamed or deleted function then fails here instead of crashing a traced
benchmark run.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def traced_names() -> dict:
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no TRACED table in bench/tracer.py")


def test_traced_functions_resolve():
    traced = traced_names()
    assert traced
    missing = [f"{module}.{fn}" for module, fns in traced.items() for fn in fns
               if not callable(getattr(importlib.import_module(f"lexsym.{module}"), fn, None))]
    assert missing == []
