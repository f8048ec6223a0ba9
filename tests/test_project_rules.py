"""The library's standing rule: no runtime dependencies and no floating point.

Checked on the source text with ``ast``, so a float that no test happens to
reach still fails here.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "vermahom").glob("*.py"))


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "criteria.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_module_uses_the_standard_library_and_no_floats(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    for node in ast.walk(tree):
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.partition(".")[0]
                assert top in sys.stdlib_module_names, (where, alias.name)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            top = node.module.partition(".")[0]
            assert top in sys.stdlib_module_names, (where, node.module)
        elif isinstance(node, ast.Constant):
            assert not isinstance(node.value, (float, complex)), (where, node.value)
        elif isinstance(node, ast.Name):
            assert node.id != "float", where


def test_pyproject_declares_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []
