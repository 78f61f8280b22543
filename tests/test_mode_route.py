"""The trainers' mode-space filter route against the Gram reference.

``trainers._mode_filter`` factors the smaller Gram side of the scaled
features, Psi^T Psi when n > dim and Psi Psi^T otherwise, so the shapes
around n = dim are where the two branches meet. Each estimator must match
:func:`kdc.filters.apply_filter` there to 1e-10, normalized as in A6.
"""
from __future__ import annotations

import hashlib

import numpy as np
import pytest

from kdc import (
    apply_filter,
    build_problem,
    filter_from_tag,
    gm_local,
    gram,
    landweber,
    sa_local,
    sample_dataset,
    spectral_kernel,
)
from kdc import filters
from kdc.filters import FILTER_TAGS, landweber_schedule_for
from kdc.kernels import kernel_features, sym_eigendecompose

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
    evals, _ = eigendecompose(g.entries / g.n)
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
