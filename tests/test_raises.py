"""Every ``raise`` in ``src/kdc`` raises an error class of ``kdc.errors``.

Callers and the CLI catch ``KdcError`` alone, so a ``raise ValueError`` in
the source would escape them as a traceback. A bare ``raise`` re-raises
what a handler caught and is allowed.
"""
from __future__ import annotations

import ast
import inspect
from pathlib import Path

import pytest

from kdc import InvalidParameterError, SgmConfig, build_problem, decompose_error, errors

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


@pytest.mark.parametrize("replications", [(50,), (50, 20, 5), 50])
def test_replications_that_are_not_a_pair_are_a_parameter_error(replications):
    # Unpacked unchecked, they would escape as a ValueError or a TypeError.
    problem = build_problem(dim=20, gamma=1.0, zeta=0.5, noise_sd=0.1)
    cfg = SgmConfig(partitions=1, batch_size=1, iterations=5, step_schedule=0.1, base_seed=0)
    with pytest.raises(InvalidParameterError, match="replications must be a pair"):
        decompose_error(problem, 16, cfg, replications=replications)
