"""The library's standing rules: no runtime dependencies, no floating point,
no module-level memo beyond a fixed list, and a CLI import that loads
neither the oracle sweeps nor ``hashlib``.

Checked on the source text with ``ast``, so a float that no test happens to
reach still fails here.
"""

import ast
import json
import os
import subprocess
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


# Module-level memos allowed in the library; every other memo that grows
# with the queries belongs to a ``criteria.Engine``.
PER_SYSTEM_OR_PROCESS_MEMOS = {
    "rootsystem._build_cached", "weyl.reflection", "weyl.longest_element",
    "weyl.enumerate_group", "cli._parser",
}
# These three grow with a sweep; they stay module memos while the bench
# tracer reads their hit ratios from ``cache_info()`` (ROADMAP item 0b).
TRACER_READ_MEMOS = {
    "weyl.inverse", "weyl.canonical_reduced_word", "integral.integral_data",
}


def _is_lru_cache(node) -> bool:
    if isinstance(node, ast.Call):
        node = node.func
    return (isinstance(node, ast.Name) and node.id == "lru_cache") or (
        isinstance(node, ast.Attribute) and node.attr == "lru_cache")


def test_module_level_memos_are_exactly_the_listed_ones():
    found = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                # a memo inside a body is built per call or per instance
                if any(map(_is_lru_cache, node.decorator_list)):
                    found.add(f"{path.stem}.{node.name}")
            elif any(map(_is_lru_cache, ast.walk(node))):
                # e.g. ``f = lru_cache(...)(g)`` at module level
                found.add(f"{path.stem}:{node.lineno}")
    assert found == PER_SYSTEM_OR_PROCESS_MEMOS | TRACER_READ_MEMOS


def test_importing_the_cli_loads_neither_the_oracle_nor_hashlib():
    # every CLI call is a fresh process: only selfcheck needs the oracle
    # sweeps, and only a call with a cache needs hashlib (and OpenSSL)
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import vermahom.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    added = set(json.loads(out))
    assert "vermahom.cli" in added
    assert not added & {"vermahom.oracle", "hashlib"}
