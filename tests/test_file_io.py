"""Only ``src/kdc/cli.py`` opens files.

The library returns records and text, and the CLI reads and writes them, so
a new output (a record column, a trace file) is written in one module. A
call to ``open``, ``io.open``, ``os.open`` or a ``Path`` reader or writer
anywhere else in the source fails this test.
"""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FILE_CALLS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}


def _called_name(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return node.func.id if isinstance(node.func, ast.Name) else None


def test_no_module_but_the_cli_opens_a_file():
    opened = [
        f"{path.name}:{node.lineno}: {ast.unparse(node.func)}"
        for path in sorted((ROOT / "src" / "kdc").glob("*.py")) if path.name != "cli.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and _called_name(node) in FILE_CALLS
    ]
    assert not opened, opened


def test_the_cli_is_seen_to_open_files():
    # Guards the guard: the walk must find the CLI's own calls.
    cli = ROOT / "src" / "kdc" / "cli.py"
    assert any(isinstance(node, ast.Call) and _called_name(node) == "open"
               for node in ast.walk(ast.parse(cli.read_text(), filename=str(cli))))
