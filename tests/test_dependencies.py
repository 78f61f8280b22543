"""Every package ``src/kdc`` imports is the standard library, kdc, or declared.

scipy, hypothesis and pytest-benchmark may be installed where the tests
run, so an undeclared import would pass here and fail on a clean install.
"""
from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def _declared() -> set[str]:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = {re.match(r"[A-Za-z0-9_.\-]+", dep).group() for dep in project["dependencies"]}
    return {name.lower().replace("-", "_") for name in names} | {"kdc"}


def _imported(path: Path) -> set[str]:
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            out |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def test_source_imports_only_the_standard_library_and_declared_dependencies():
    allowed = set(sys.stdlib_module_names) | _declared()
    undeclared = {
        f"{path.name}: {name}"
        for path in sorted((ROOT / "src" / "kdc").glob("*.py"))
        for name in _imported(path) - allowed
    }
    assert not undeclared, sorted(undeclared)
