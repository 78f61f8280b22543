from __future__ import annotations

import math

import numpy as np
import pytest

from kdc import (
    DomainError,
    EigendecompositionError,
    GramMatrix,
    InvalidParameterError,
    build_problem,
    gram,
    kernel_cross,
    kernel_eval,
    predict,
    regression_value,
    sa_local,
    sample_dataset,
    spectral_kernel,
    sym_eigendecompose,
    tikhonov,
)
from kdc.kernels import kernel_features


@pytest.fixture(scope="module")
def kernel(small_problem):
    return spectral_kernel(small_problem)


def test_spectral_kernel_matches_the_mode_sum(small_problem, kernel):
    # K(x,u) = sum_i sigma_i * 2 sin(i pi x) sin(i pi u), written out directly.
    rng = np.random.default_rng(0)
    for x, u in rng.random((8, 2)):
        modes = np.arange(1, small_problem.dim + 1)
        expected = float(
            np.sum(
                small_problem.eigenvalues
                * 2.0
                * np.sin(modes * np.pi * x)
                * np.sin(modes * np.pi * u)
            )
        )
        assert kernel_eval(kernel, x, u) == pytest.approx(expected, rel=1e-12)


def test_kernel_is_symmetric_and_bounded(kernel, small_problem):
    rng = np.random.default_rng(1)
    pts = rng.random(40)
    for x, u in zip(pts[:20], pts[20:]):
        assert kernel_eval(kernel, x, u) == pytest.approx(kernel_eval(kernel, u, x), rel=1e-12)
    diag = [kernel_eval(kernel, x, x) for x in pts]
    assert max(diag) <= small_problem.kappa_sq * (1.0 + 1e-12)


def test_spectral_kernel_rejects_points_off_the_interval(kernel):
    with pytest.raises(DomainError):
        kernel_eval(kernel, -0.1, 0.5)
    with pytest.raises(DomainError):
        kernel_cross(kernel, np.array([0.2, 1.5]), np.array([0.3]))


@pytest.mark.parametrize("xs", [math.nan, np.array([0.5, math.nan])])
def test_nan_lies_outside_the_domain(small_problem, kernel, xs):
    model = sa_local(sample_dataset(small_problem, 8, seed=0),
                     tikhonov(small_problem.kappa_sq, 0.1), kernel)
    for evaluate in (lambda: kernel_features(kernel, xs),
                     lambda: regression_value(small_problem, xs),
                     lambda: predict(model, xs)):
        with pytest.raises(DomainError):
            evaluate()


def test_kernel_spec_keys_identify_kernels(small_problem, kernel):
    assert kernel.key() == spectral_kernel(small_problem).key()
    other = spectral_kernel(build_problem(dim=21, gamma=1.0, zeta=0.5, noise_sd=0.1))
    assert kernel.key() != other.key()
    a = build_problem(dim=12, gamma=1.0, zeta=0.5, noise_sd=0.1)
    b = build_problem(dim=12, gamma=0.5, zeta=0.5, noise_sd=0.1)
    assert spectral_kernel(a).key() == spectral_kernel(a).key()
    assert spectral_kernel(a).key() != spectral_kernel(b).key()
    assert kernel.key() != spectral_kernel(a).key()


def test_kernel_cross_agrees_with_pointwise_eval(kernel):
    xs = np.array([0.1, 0.4, 0.8])
    us = np.array([0.25, 0.6])
    block = kernel_cross(kernel, xs, us)
    assert block.shape == (3, 2)
    for i, x in enumerate(xs):
        for j, u in enumerate(us):
            assert block[i, j] == pytest.approx(kernel_eval(kernel, x, u), rel=1e-12)


def test_gram_is_symmetric_psd_and_read_only(kernel):
    rng = np.random.default_rng(2)
    xs = rng.random(30)
    g = gram(kernel, xs)
    assert g.n == 30
    np.testing.assert_allclose(g.entries, g.entries.T, atol=0.0)
    assert np.min(np.linalg.eigvalsh(g.entries)) >= -1e-10
    assert g.trace == pytest.approx(float(np.trace(g.entries)), rel=1e-15)
    with pytest.raises(ValueError):
        g.entries[0, 0] = 5.0


def test_gram_matrix_rejects_asymmetric_entries():
    bad = np.array([[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(InvalidParameterError):
        GramMatrix(2, bad)


def test_gram_algebra_rejects_malformed_inputs(kernel):
    with pytest.raises(InvalidParameterError, match="entries must be an n x n matrix"):
        GramMatrix(2, np.zeros((2, 3)))
    with pytest.raises(InvalidParameterError, match="inputs must be nonempty"):
        gram(kernel, [])
    for mat in (np.zeros((2, 3)), np.zeros(3)):
        with pytest.raises(InvalidParameterError, match="matrix must be square"):
            sym_eigendecompose(mat)


def test_eigendecomposition_reconstructs_and_sorts(kernel):
    rng = np.random.default_rng(3)
    g = gram(kernel, rng.random(25))
    vals, vecs = sym_eigendecompose(g)
    assert vals.shape == (25,) and vecs.shape == (25, 25)
    assert np.all(np.diff(vals) <= 0)
    assert np.all(vals >= 0.0)
    np.testing.assert_allclose(
        vecs @ (vals[:, None] * vecs.T), g.entries, atol=1e-10 * max(1.0, np.abs(g.entries).max())
    )
    # Agreement with numpy's symmetric solver, up to ordering.
    ref = np.sort(np.linalg.eigvalsh(g.entries))[::-1]
    np.testing.assert_allclose(vals, np.maximum(ref, 0.0), atol=1e-10)


def test_eigendecomposition_clamps_tiny_negative_eigenvalues():
    eps = 1e-12
    mat = np.diag([1.0, -eps])
    vals, _ = sym_eigendecompose(mat)
    assert vals[1] == 0.0


def test_eigendecomposition_rejects_clearly_indefinite_matrices():
    with pytest.raises(EigendecompositionError):
        sym_eigendecompose(np.diag([1.0, -1.0]))
