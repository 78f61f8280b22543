"""The trainers' mode-space filter route against the Gram reference.

``trainers._mode_filter`` works on the smaller Gram side of the scaled
features, Psi^T Psi when n > dim and Psi Psi^T otherwise, with Psi^T Psi
built from Phi^T Phi so that no scaled copy of Phi is made. Tikhonov
takes one linear solve of that side plus lambda I whenever its trace is
at most kappa_sq; the other filters, and Tikhonov past that trace, take
one ``eigh``. The shapes around n = dim are where the two branches meet.
Each estimator must match :func:`kdc.filters.apply_filter` there to 1e-10,
normalized as in A6, and the route each takes is pinned by counting
``eigh`` calls.
"""
from __future__ import annotations

import hashlib
import re

import numpy as np
import pytest

from kdc import (
    DomainError,
    apply_filter,
    build_problem,
    distributed_sa,
    filter_from_tag,
    gm_local,
    gram,
    landweber,
    regression_value,
    sa_local,
    sample_dataset,
    spectral_kernel,
    tikhonov,
)
from kdc import filters
from kdc.filters import FILTER_TAGS, landweber_schedule_for
from kdc.kernels import kernel_features, sym_eigendecompose
from kdc.trainers import _mode_filter

LAMBDAS = (1e-3, 1e-2, 0.3)


def _memoized(eigendecompose):
    # apply_filter runs unchanged; only its n x n eigensolve is shared across
    # the estimators and lambdas of one shape.
    cache = {}

    def wrapper(mat):
        key = hashlib.sha256(np.ascontiguousarray(mat).tobytes()).hexdigest()
        if key not in cache:
            cache[key] = eigendecompose(mat)
        return cache[key]

    return wrapper


def _rel(primal, dual) -> float:
    return float(np.max(np.abs(primal - dual)) / max(1.0, float(np.max(np.abs(dual)))))


def _count_eigh(monkeypatch) -> list:
    """Record the shape of every ``np.linalg.eigh`` call from now on."""
    calls = []
    eigh = np.linalg.eigh

    def counted(mat, *args, **kwargs):
        calls.append(np.shape(mat))
        return eigh(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


@pytest.mark.parametrize("dim, n", [(200, 199), (200, 200), (200, 201), (200, 203),
                                    (200, 2048), (20, 48)])
def test_mode_filter_matches_apply_filter_around_n_equals_dim(monkeypatch, dim, n):
    eigendecompose = _memoized(sym_eigendecompose)
    monkeypatch.setattr(filters, "sym_eigendecompose", eigendecompose)
    problem = build_problem(dim=dim, gamma=1.0, zeta=0.5, noise_sd=0.3)
    kernel = spectral_kernel(problem)
    data = sample_dataset(problem, n, seed=n + dim)
    g = gram(kernel, data.inputs)
    ksq = problem.kappa_sq
    feats = kernel_features(kernel, data.inputs)

    # A cutoff 1e-6 relative above an empirical eigenvalue of K/n.
    evals, _ = eigendecompose(g / n)
    cases = [(tag, lam) for tag in FILTER_TAGS + ("gm_local",) for lam in LAMBDAS]
    cases.append(("cutoff", float(evals[min(10, n - 1)]) * (1.0 + 1e-6)))

    for tag, lam in cases:
        steps = landweber_schedule_for(lam, ksq)
        if tag == "gm_local":
            model = gm_local(data, steps, steps.size, kernel)
            dual = apply_filter(landweber(steps, kappa_sq=ksq), g, data.labels)
        else:
            spec = filter_from_tag(tag, ksq, lam)
            model = sa_local(data, spec, kernel)
            dual = apply_filter(spec, g, data.labels)
        dual_modes = problem.eigenvalues * (feats.T @ dual)
        err = max(_rel(model.coeffs, dual), _rel(model.modes, dual_modes))
        assert err <= 1e-10, (tag, lam, err)


@pytest.mark.parametrize("gamma", [0.5, 1.0])
@pytest.mark.parametrize("n", [1, 2, 199, 200, 201, 2048])
def test_tikhonov_solve_matches_apply_filter_column_by_column(monkeypatch, gamma, n):
    monkeypatch.setattr(filters, "sym_eigendecompose", _memoized(sym_eigendecompose))
    problem = build_problem(dim=200, gamma=gamma, zeta=0.5, noise_sd=0.3)
    kernel = spectral_kernel(problem)
    data = sample_dataset(problem, n, seed=n + 200)
    g = gram(kernel, data.inputs)
    feats = kernel_features(kernel, data.inputs)
    labels = np.column_stack((data.labels, regression_value(problem, data.inputs)))
    calls = _count_eigh(monkeypatch)

    for lam in (1e-4, 1e-3, 1e-2, 0.3):
        spec = tikhonov(problem.kappa_sq, lam)
        before = len(calls)
        model = sa_local(data, spec, kernel)
        both = _mode_filter(kernel, feats, labels, spec)
        assert len(calls) == before, "Tikhonov left the solve route"
        dual = apply_filter(spec, g, data.labels)
        dual_modes = problem.eigenvalues * (feats.T @ dual)
        err = max(_rel(model.coeffs, dual), _rel(model.modes, dual_modes))
        assert err <= 1e-10, (lam, err)
        singles = np.column_stack([_mode_filter(kernel, feats, col, spec) for col in labels.T])
        assert _rel(both, singles) <= 1e-13, lam


@pytest.mark.parametrize("n_total, m", [(8192, 32), (1024, 16)])
def test_only_tikhonov_skips_eigh_in_distributed_sa(monkeypatch, default_problem, n_total, m):
    kernel = spectral_kernel(default_problem)
    data = sample_dataset(default_problem, n_total, seed=7)
    calls = _count_eigh(monkeypatch)
    for tag in FILTER_TAGS:
        calls.clear()
        distributed_sa(data, filter_from_tag(tag, default_problem.kappa_sq, 0.05), kernel, m, 4)
        side = min(n_total // m, default_problem.dim)
        expected = [] if tag == "tikhonov" else [(side, side)] * m
        assert calls == expected, tag


@pytest.mark.parametrize("n", [64, 256])
def test_tikhonov_past_the_trace_bound_takes_eigh_and_keeps_its_domain_error(
        monkeypatch, default_problem, n):
    kernel = spectral_kernel(default_problem)
    data = sample_dataset(default_problem, n, seed=11)
    g = gram(kernel, data.inputs)
    evals = np.linalg.eigvalsh(g / n)
    top, trace = float(evals[-1]), np.trace(g) / n
    assert top < trace
    calls = _count_eigh(monkeypatch)

    spec = tikhonov(0.5 * (top + trace), 1e-3)
    model = sa_local(data, spec, kernel)
    assert len(calls) == 1
    assert _rel(model.coeffs, apply_filter(spec, g, data.labels)) <= 1e-10

    low = 0.5 * top
    with pytest.raises(DomainError, match=re.escape(f"filter argument must lie in [0, {low:.6g}]")):
        sa_local(data, tikhonov(low, 1e-3), kernel)
