"""The fast routes of the sine basis against the textbook formulas.

``basis_matrix`` builds Phi by angle doubling, ``basis_covariance`` builds
Phi^T Phi from 2 dim + 1 moments, and ``_kappa_sq`` reads the grid maximum
of K(x, x) from one FFT. Sweeps run with ``basis_matrix`` patched back to
sqrt(2) sin(i pi x), or with the covariance patched back to the dense
product, must match the real route to 1e-10, normalized as in A6, with
local samples both below and above dim; the covariance must match the dense
product entry by entry; and the FFT's fold of modes i > M onto i mod M must
agree with a direct cosine sum.
"""
from __future__ import annotations

import numpy as np
import pytest

from kdc import kernels, spectral_model, trainers
from kdc.harness import ExperimentConfig, run_experiment
from oracles import textbook_basis

RECORD_FLOATS = ("eta", "lam", "risk_mean", "risk_se")


def sweep_config(algorithm, regime, filter_tag):
    # dim 50: n_local is 16 at N = 64 and 128 at N = 512.
    return ExperimentConfig(regime=regime, algorithm=algorithm, filter=filter_tag,
                            n_list=(64, 512), dim=50, gamma=0.5, noise_sd=0.3, m_rule=4,
                            replications=2, base_seed=5)


def assert_records_match(fast, reference):
    assert [r.n_local for r in fast] == [16, 128]
    for a, b in zip(fast, reference):
        assert a.error == b.error == ""
        assert (a.batch_size, a.iterations) == (b.batch_size, b.iterations)
        for name in RECORD_FLOATS:
            want = getattr(b, name)
            if want is not None:
                assert getattr(a, name) == pytest.approx(want, rel=1e-10), name


@pytest.mark.parametrize("algorithm,regime,filter_tag", [
    ("sa", "cor5", "tikhonov"), ("sa", "cor5", "landweber"), ("sgm", "cor2.2", "tikhonov"),
])
def test_sweeps_match_the_textbook_basis(monkeypatch, algorithm, regime, filter_tag):
    config = sweep_config(algorithm, regime, filter_tag)
    fast = run_experiment(config)
    monkeypatch.setattr(spectral_model, "basis_matrix", textbook_basis)
    monkeypatch.setattr(kernels, "basis_matrix", textbook_basis)
    assert_records_match(fast, run_experiment(config))


@pytest.mark.parametrize("filter_tag", ["tikhonov", "cutoff", "landweber"])
def test_filter_sweeps_match_the_dense_covariance(monkeypatch, filter_tag):
    config = sweep_config("sa", "cor5", filter_tag)
    fast = run_experiment(config)
    monkeypatch.setattr(trainers, "basis_covariance", lambda phi: phi.T @ phi)
    assert_records_match(fast, run_experiment(config))


@pytest.mark.parametrize("dim", [1, 2, 3, 20, 200, 400])
def test_basis_covariance_equals_the_dense_product(dim):
    rng = np.random.default_rng(dim)
    for n in sorted({1, dim - 1, dim + 1, 2048, 8192}):
        x = np.concatenate(([0.5, 0.0, 1.0], rng.random(n)))[:n]
        phi = spectral_model.basis_matrix(dim, x)
        dense = phi.T @ phi
        got = spectral_model.basis_covariance(phi)
        assert got.shape == (dim, dim)
        assert np.abs(got - dense).max() <= 1e-13 * np.abs(dense).max(), (dim, n)


def test_kappa_sq_folds_modes_beyond_the_grid_period():
    # K(x_j, x_j) = sum_i sigma_i (1 - cos(2 pi (i j mod M) / M)), summed directly.
    period = spectral_model.KAPPA_GRID_POINTS - 1
    dim = period + 3
    eigenvalues = 1.0 / np.arange(1, dim + 1)
    cosines = np.cos(2.0 * np.pi * np.arange(period) / period)
    modes = np.arange(1, dim + 1)
    direct = max(float(((1.0 - cosines[np.outer(js, modes) % period]) @ eigenvalues).max())
                 for js in np.array_split(np.arange(period + 1), 50))
    assert spectral_model._kappa_sq(dim, 1.0) == pytest.approx(direct, rel=1e-13)
