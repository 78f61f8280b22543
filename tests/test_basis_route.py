"""The fast routes of the sine basis against the textbook formulas.

``basis_matrix`` builds Phi by angle doubling and ``_kappa_sq`` reads the
grid maximum of K(x, x) from one FFT. Sweeps run with ``basis_matrix``
patched back to sqrt(2) sin(i pi x) must match the real route to 1e-10,
normalized as in A6, for filters and SGM, with local samples both below and
above dim; and the FFT's fold of modes i > M onto i mod M must agree with a
direct cosine sum.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from kdc import kernels, spectral_model
from kdc.harness import ExperimentConfig, run_experiment

RECORD_FLOATS = ("eta", "lam", "risk_mean", "risk_se")


def textbook_basis(dim, x):
    return math.sqrt(2.0) * np.sin(np.pi * np.outer(x, np.arange(1, dim + 1)))


@pytest.mark.parametrize("algorithm,regime,filter_tag", [
    ("sa", "cor5", "tikhonov"), ("sa", "cor5", "landweber"), ("sgm", "cor2.2", "tikhonov"),
])
def test_sweeps_match_the_textbook_basis(monkeypatch, algorithm, regime, filter_tag):
    # dim 50: n_local is 16 at N = 64 and 128 at N = 512.
    config = ExperimentConfig(regime=regime, algorithm=algorithm, filter=filter_tag,
                              n_list=(64, 512), dim=50, gamma=0.5, noise_sd=0.3, m_rule=4,
                              replications=2, base_seed=5)
    fast = run_experiment(config)
    monkeypatch.setattr(spectral_model, "basis_matrix", textbook_basis)
    monkeypatch.setattr(kernels, "basis_matrix", textbook_basis)
    textbook = run_experiment(config)
    assert [r.n_local for r in fast] == [16, 128]
    for a, b in zip(fast, textbook):
        assert a.error == b.error == ""
        assert (a.batch_size, a.iterations) == (b.batch_size, b.iterations)
        for name in RECORD_FLOATS:
            want = getattr(b, name)
            if want is not None:
                assert getattr(a, name) == pytest.approx(want, rel=1e-10), name


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
