"""Every ``raise`` in ``src/kdc`` raises an error class of ``kdc.errors``.

Callers and the CLI catch ``KdcError`` alone, so a ``raise ValueError`` in
the source would escape them as a traceback. A bare ``raise`` re-raises
what a handler caught and is allowed.
"""
from __future__ import annotations

import ast
import inspect
from pathlib import Path

from kdc import errors

ROOT = Path(__file__).resolve().parents[1]

KDC_ERRORS = {
    name for name, value in vars(errors).items()
    if inspect.isclass(value) and issubclass(value, errors.KdcError)
    and value.__module__ == errors.__name__
}


def _raised_class(node: ast.Raise) -> str:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    if isinstance(exc, ast.Attribute):
        return exc.attr
    return exc.id if isinstance(exc, ast.Name) else ast.unparse(exc)


def test_every_raise_in_the_source_is_a_kdc_error():
    foreign = [
        f"{path.name}:{node.lineno}: raise {ast.unparse(node.exc)}"
        for path in sorted((ROOT / "src" / "kdc").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Raise) and node.exc is not None
        and _raised_class(node) not in KDC_ERRORS
    ]
    assert not foreign, foreign
