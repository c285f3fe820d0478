"""Static hygiene of the package source and the scripts: imports sit in
the module header and are used.

The package re-exports its API from `__init__.py`, so that file is exempt;
every other module, and every script under `scripts/`, must use each name
it imports at module level and import nothing inside a function body.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for p in (ROOT / "src" / "lexsym").glob("*.py")
                 if p.name != "__init__.py") + sorted((ROOT / "scripts").glob("*.py"))


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
