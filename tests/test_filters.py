from __future__ import annotations

import math

import numpy as np
import pytest

from kdc import (
    DomainError,
    InvalidParameterError,
    apply_filter,
    build_problem,
    effective_lambda,
    filter_from_tag,
    filter_value,
    gram,
    landweber,
    residual_product,
    sample_dataset,
    spectral_cutoff,
    spectral_kernel,
    step_sum,
    tikhonov,
    tikhonov_bias_corrected,
    validate_filter,
)
from kdc.filters import FILTER_TAGS

KAPPA_SQ = 6.5736410355431385


def truncated_sum(etas, u):
    """Oracle for the gradient-flow filter: G_t(u) = sum_k eta_k prod_{i>k}(1 - eta_i u)."""
    total = 0.0
    for k in range(len(etas)):
        prod = 1.0
        for i in range(k + 1, len(etas)):
            prod *= 1.0 - etas[i] * u
        total += etas[k] * prod
    return total


def test_tikhonov_closed_form():
    spec = tikhonov(KAPPA_SQ)
    us = np.linspace(0.0, KAPPA_SQ, 13)
    for lam in (0.01, 0.5):
        np.testing.assert_allclose(filter_value(spec, lam, us), 1.0 / (us + lam), rtol=1e-14)


def test_cutoff_keeps_high_modes_and_zeroes_low_ones():
    spec = spectral_cutoff(KAPPA_SQ)
    lam = 0.2
    assert filter_value(spec, lam, 0.5) == pytest.approx(2.0, rel=1e-14)
    assert filter_value(spec, lam, 0.2) == pytest.approx(5.0, rel=1e-14)
    assert filter_value(spec, lam, 0.1999) == 0.0
    assert spec.qualification == math.inf


def test_bias_corrected_tikhonov_closed_form():
    spec = tikhonov_bias_corrected(KAPPA_SQ)
    us = np.linspace(0.0, KAPPA_SQ, 13)
    lam = 0.07
    expected = lam / (lam + us) ** 2 + 1.0 / (lam + us)
    np.testing.assert_allclose(filter_value(spec, lam, us), expected, rtol=1e-13)


def test_gradient_filter_matches_truncated_sum_oracle():
    # Steps up to 0.2 need a kernel bound of at most 5; use 4.
    etas = [0.1, 0.2, 0.05, 0.15]
    spec = landweber(etas, kappa_sq=4.0)
    # Frozen oracle values for this schedule.
    assert filter_value(spec, None, 0.0) == pytest.approx(0.5, rel=1e-14)
    assert filter_value(spec, None, 0.3) == pytest.approx(0.47430845, rel=1e-12)
    assert filter_value(spec, None, 1.7) == pytest.approx(0.36857555, rel=1e-12)
    # And against the oracle on a random grid.
    rng = np.random.default_rng(4)
    for u in rng.uniform(0.0, 4.0, size=10):
        assert filter_value(spec, None, u) == pytest.approx(truncated_sum(etas, u), rel=1e-11)


def test_gradient_filter_residual_identity():
    # u G_t(u) + prod(1 - eta u) = 1, checked well below the 1e-12 gate.
    etas = [0.07] * 9
    spec = landweber(etas, kappa_sq=KAPPA_SQ)
    u = 1.3
    lhs = u * filter_value(spec, None, u)
    assert lhs == pytest.approx(0.5762839168445267, rel=1e-13)
    assert abs(lhs - (1.0 - residual_product(etas, u))) < 1e-12
    rng = np.random.default_rng(5)
    for trial in range(5):
        sched = rng.uniform(0.01, 1.0 / KAPPA_SQ, size=rng.integers(2, 60))
        us = rng.uniform(0.0, KAPPA_SQ, size=8)
        spec_t = landweber(sched, kappa_sq=KAPPA_SQ)
        gvals = filter_value(spec_t, None, us)
        np.testing.assert_allclose(us * gvals + residual_product(sched, us), 1.0, atol=1e-12)


def test_effective_lambda_and_step_sum():
    etas = [0.1, 0.2, 0.05, 0.15]
    spec = landweber(etas, kappa_sq=4.0)
    assert step_sum(spec) == pytest.approx(0.5, rel=1e-15)
    assert effective_lambda(spec) == pytest.approx(2.0, rel=1e-15)
    assert effective_lambda(tikhonov(KAPPA_SQ), 0.03) == 0.03


def test_landweber_rejects_inadmissible_schedules():
    with pytest.raises(InvalidParameterError):
        landweber([2.0 / KAPPA_SQ], kappa_sq=KAPPA_SQ)
    with pytest.raises(InvalidParameterError):
        landweber([-0.01, 0.01], kappa_sq=KAPPA_SQ)
    with pytest.raises(InvalidParameterError):
        landweber([], kappa_sq=KAPPA_SQ)


def test_landweber_zero_steps_leave_the_filter_unchanged():
    eta = 0.9 / KAPPA_SQ
    us = np.linspace(0.0, KAPPA_SQ, 33)
    padded = landweber([0.0, eta], kappa_sq=KAPPA_SQ)
    plain = landweber([eta], kappa_sq=KAPPA_SQ)
    np.testing.assert_array_equal(filter_value(padded, None, us), filter_value(plain, None, us))
    assert effective_lambda(padded) == effective_lambda(plain)
    with pytest.raises(InvalidParameterError):
        landweber([0.0, 0.0], kappa_sq=KAPPA_SQ)


def test_filter_value_domain_checks():
    spec = tikhonov(KAPPA_SQ)
    with pytest.raises(DomainError):
        filter_value(spec, 0.1, KAPPA_SQ * 1.01)
    with pytest.raises(DomainError):
        filter_value(spec, 0.1, -0.5)
    with pytest.raises(InvalidParameterError):
        filter_value(spec, 0.0, 1.0)
    with pytest.raises(InvalidParameterError):
        filter_value(spec, -0.2, 1.0)


@pytest.mark.parametrize("tag", FILTER_TAGS)
def test_default_filters_pass_their_own_certificates(tag):
    # Landweber at lambda = 0.2 runs 67 steps of 1/(2 * 1.01 * kappa_sq).
    spec = filter_from_tag(tag, KAPPA_SQ, 0.2)
    report = validate_filter(spec)
    assert report.passed, (tag, report)
    assert report.value_ok and report.residual_ok
    assert report.max_value_lhs <= spec.const_e * (1.0 + 1e-9)
    assert report.max_residual_lhs <= spec.const_f * (1.0 + 1e-9)


def test_validation_catches_an_undersized_residual_constant():
    # Declaring qualification 1 forces F = (1/e) ~ 0.37, but the residual
    # polynomial starts at 1 near u = 0, so the certificate must fail.
    sched = np.full(40, 1.0 / (2.0 * KAPPA_SQ))
    spec = landweber(sched, kappa_sq=KAPPA_SQ, qualification=1.0)
    report = validate_filter(spec)
    assert not report.residual_ok
    assert not report.passed


def test_filter_from_tag_rejects_unknown_tags():
    with pytest.raises(InvalidParameterError):
        filter_from_tag("ridge", KAPPA_SQ, 0.1)


def test_tikhonov_filter_solves_the_regularized_system():
    problem = build_problem(dim=20, gamma=1.0, zeta=0.5, noise_sd=0.1)
    kernel = spectral_kernel(problem)
    data = sample_dataset(problem, 40, seed=21)
    g = gram(kernel, data.inputs)
    lam = 0.05
    coeffs = apply_filter(tikhonov(problem.kappa_sq), lam, g, data.labels)
    n = len(data)
    direct = np.linalg.solve(g.entries / n + lam * np.eye(n), data.labels / n)
    np.testing.assert_allclose(coeffs, direct, rtol=1e-9, atol=1e-12)
