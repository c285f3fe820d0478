"""Static hygiene of the package source and the scripts: imports sit in
the module header and are used, and one module refines colourings.

The package re-exports its API from `__init__.py`, so that file is exempt;
every other module, and every script under `scripts/`, must use each name
it imports at module level and import nothing inside a function body.
Only `wl.py` builds refinement rounds: no other package module names the
round builders, apart from the re-export of `refine_step`.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "lexsym").glob("*.py"))
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"] + sorted((ROOT / "scripts").glob("*.py"))
ROUND_BUILDERS = {"_canonical_rename", "refine_step"}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def function_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = {node.lineno
             for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))}
    return [f"line {line}" for line in sorted(lines)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_function_imports(path):
    assert function_imports(path.read_text()) == []


def test_checker_flags_a_function_import():
    source = "import os\ndef f():\n    def g():\n        import re\n    from os import path\n"
    assert function_imports(source) == ["line 4", "line 5"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nfrom typing import Optional, Union\nx: Optional[int]\n") == [
        "line 1: os", "line 2: Union"]


def round_builder_names(source: str) -> list[str]:
    """The names in `ROUND_BUILDERS` that the source imports, defines or
    uses, by line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.alias):
            names = [node.name, node.asname]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names if name in ROUND_BUILDERS]
    return sorted(found)


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "wl.py"], ids=lambda p: p.name)
def test_one_refinement_engine(path):
    names = [entry.split(": ")[1] for entry in round_builder_names(path.read_text())]
    assert names == (["refine_step"] if path.name == "__init__.py" else [])


def test_checker_flags_a_round_builder():
    source = ("from .wl import _canonical_rename as rename\n"
              "def refine_step(g):\n    return wl.refine_step(g, rename([], 0))\n")
    assert round_builder_names(source) == [
        "line 1: _canonical_rename", "line 2: refine_step", "line 3: refine_step"]
