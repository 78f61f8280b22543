from __future__ import annotations

import math

import numpy as np
import pytest

from kdc import (
    DomainError,
    EigendecompositionError,
    InvalidParameterError,
    apply_filter,
    build_problem,
    gram,
    kernel_cross,
    predict,
    regression_value,
    sa_local,
    sample_dataset,
    spectral_kernel,
    sym_eigendecompose,
    tikhonov,
)
from kdc.filters import filter_from_tag
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
        assert kernel_cross(kernel, x, u)[0, 0] == pytest.approx(expected, rel=1e-12)


def test_kernel_is_symmetric_and_bounded(kernel, small_problem):
    rng = np.random.default_rng(1)
    pts = rng.random(40)
    for x, u in zip(pts[:20], pts[20:]):
        assert kernel_cross(kernel, x, u)[0, 0] == pytest.approx(
            kernel_cross(kernel, u, x)[0, 0], rel=1e-12)
    diag = [kernel_cross(kernel, x, x)[0, 0] for x in pts]
    assert max(diag) <= small_problem.kappa_sq * (1.0 + 1e-12)


def test_spectral_kernel_rejects_points_off_the_interval(kernel):
    with pytest.raises(DomainError):
        kernel_cross(kernel, -0.1, 0.5)
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
            assert block[i, j] == pytest.approx(kernel_cross(kernel, x, u)[0, 0], rel=1e-12)


def test_gram_is_symmetric_psd_and_read_only(kernel):
    rng = np.random.default_rng(2)
    xs = rng.random(30)
    g = gram(kernel, xs)
    assert type(g) is np.ndarray and g.shape == (30, 30)
    np.testing.assert_allclose(g, g.T, atol=0.0)
    assert np.min(np.linalg.eigvalsh(g)) >= -1e-10
    assert not g.flags.writeable
    with pytest.raises(ValueError):
        g[0, 0] = 5.0


# Each malformed matrix with the message the one set of checks raises for it.
MALFORMED = [
    (np.zeros((2, 3)), "matrix must be square"),
    (np.zeros(3), "matrix must be square"),
    (np.zeros((2, 2, 2)), "matrix must be square"),
    (np.zeros((0, 0)), "matrix must be nonempty"),
    (np.array([[1.0, 0.5], [0.2, 1.0]]), "matrix must be symmetric"),
    # A nested list too; not the eigenvalues [1.25, 0.75] of its symmetric part.
    ([[1, 0.5], [0, 1]], "matrix must be symmetric"),
]


@pytest.mark.parametrize("mat, message", MALFORMED)
def test_sym_eigendecompose_rejects_malformed_arrays(mat, message):
    with pytest.raises(InvalidParameterError, match=message):
        sym_eigendecompose(mat)


@pytest.mark.parametrize("mat, message", MALFORMED)
def test_apply_filter_rejects_malformed_arrays(small_problem, mat, message):
    spec = tikhonov(small_problem.kappa_sq, 0.1)
    with pytest.raises(InvalidParameterError, match=message):
        apply_filter(spec, mat, np.ones(len(mat)))


def test_symmetry_is_checked_to_1e12_relative():
    scale = 1e3
    base = scale * np.array([[2.0, 1.0], [1.0, 2.0]])
    within = base + np.array([[0.0, 0.5e-12 * scale], [0.0, 0.0]])
    beyond = base + np.array([[0.0, 4e-12 * scale], [0.0, 0.0]])
    sym_eigendecompose(within)
    with pytest.raises(InvalidParameterError, match="matrix must be symmetric"):
        sym_eigendecompose(beyond)
    # Below unit scale the tolerance is absolute, 1e-12.
    small = np.array([[1e-3, 0.0], [5e-13, 1e-3]])
    sym_eigendecompose(small)
    with pytest.raises(InvalidParameterError, match="matrix must be symmetric"):
        sym_eigendecompose(small + np.array([[0.0, 0.0], [2e-12, 0.0]]))


def test_gram_rejects_no_inputs(kernel):
    with pytest.raises(InvalidParameterError, match="inputs must be nonempty"):
        gram(kernel, [])


def test_apply_filter_takes_a_plain_array(small_problem, kernel):
    # The same bits from gram's read-only array and from a hand-built copy of it.
    data = sample_dataset(small_problem, 12, seed=5)
    g = gram(kernel, data.inputs)
    copy = np.array(g.tolist())
    assert copy.flags.writeable
    for tag in ("tikhonov", "cutoff", "landweber"):
        spec = filter_from_tag(tag, small_problem.kappa_sq, 0.05)
        np.testing.assert_array_equal(apply_filter(spec, g, data.labels),
                                      apply_filter(spec, copy, data.labels))


def test_eigendecomposition_reconstructs_and_sorts(kernel):
    rng = np.random.default_rng(3)
    g = gram(kernel, rng.random(25))
    vals, vecs = sym_eigendecompose(g)
    assert vals.shape == (25,) and vecs.shape == (25, 25)
    assert np.all(np.diff(vals) <= 0)
    assert np.all(vals >= 0.0)
    np.testing.assert_allclose(
        vecs @ (vals[:, None] * vecs.T), g, atol=1e-10 * max(1.0, np.abs(g).max())
    )
    # Agreement with numpy's symmetric solver, up to ordering.
    ref = np.sort(np.linalg.eigvalsh(g))[::-1]
    np.testing.assert_allclose(vals, np.maximum(ref, 0.0), atol=1e-10)


def test_eigendecomposition_clamps_tiny_negative_eigenvalues():
    eps = 1e-12
    mat = np.diag([1.0, -eps])
    vals, _ = sym_eigendecompose(mat)
    assert vals[1] == 0.0


def test_eigendecomposition_rejects_clearly_indefinite_matrices():
    with pytest.raises(EigendecompositionError):
        sym_eigendecompose(np.diag([1.0, -1.0]))
