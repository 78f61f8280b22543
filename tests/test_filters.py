from __future__ import annotations

import math

import numpy as np
import pytest

from kdc import (
    DomainError,
    FilterSpec,
    InvalidParameterError,
    apply_filter,
    build_problem,
    filter_from_tag,
    filter_value,
    gram,
    landweber,
    residual_product,
    sample_dataset,
    spectral_cutoff,
    spectral_kernel,
    tikhonov,
    tikhonov_bias_corrected,
    validate_filter,
)
from kdc import filters
from kdc.filters import FILTER_TAGS, MAX_LANDWEBER_STEPS, landweber_schedule_for

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
    us = np.linspace(0.0, KAPPA_SQ, 13)
    for lam in (0.01, 0.5):
        spec = tikhonov(KAPPA_SQ, lam)
        np.testing.assert_allclose(filter_value(spec, us), 1.0 / (us + lam), rtol=1e-14)


def test_cutoff_keeps_high_modes_and_zeroes_low_ones():
    spec = spectral_cutoff(KAPPA_SQ, 0.2)
    assert filter_value(spec, 0.5) == pytest.approx(2.0, rel=1e-14)
    assert filter_value(spec, 0.2) == pytest.approx(5.0, rel=1e-14)
    assert filter_value(spec, 0.1999) == 0.0
    assert spec.qualification == math.inf


def test_bias_corrected_tikhonov_closed_form():
    us = np.linspace(0.0, KAPPA_SQ, 13)
    lam = 0.07
    spec = tikhonov_bias_corrected(KAPPA_SQ, lam)
    expected = lam / (lam + us) ** 2 + 1.0 / (lam + us)
    np.testing.assert_allclose(filter_value(spec, us), expected, rtol=1e-13)


def test_gradient_filter_matches_truncated_sum_oracle():
    # Steps up to 0.2 need a kernel bound of at most 5; use 4.
    etas = [0.1, 0.2, 0.05, 0.15]
    spec = landweber(etas, kappa_sq=4.0)
    # Frozen oracle values for this schedule.
    assert filter_value(spec, 0.0) == pytest.approx(0.5, rel=1e-14)
    assert filter_value(spec, 0.3) == pytest.approx(0.47430845, rel=1e-12)
    assert filter_value(spec, 1.7) == pytest.approx(0.36857555, rel=1e-12)
    # And against the oracle on a random grid.
    rng = np.random.default_rng(4)
    for u in rng.uniform(0.0, 4.0, size=10):
        assert filter_value(spec, u) == pytest.approx(truncated_sum(etas, u), rel=1e-11)


def test_gradient_filter_residual_identity():
    # u G_t(u) + prod(1 - eta u) = 1, checked well below the 1e-12 gate.
    etas = [0.07] * 9
    spec = landweber(etas, kappa_sq=KAPPA_SQ)
    u = 1.3
    lhs = u * filter_value(spec, u)
    assert lhs == pytest.approx(0.5762839168445267, rel=1e-13)
    assert abs(lhs - (1.0 - residual_product(etas, u))) < 1e-12
    rng = np.random.default_rng(5)
    for trial in range(5):
        sched = rng.uniform(0.01, 1.0 / KAPPA_SQ, size=rng.integers(2, 60))
        us = rng.uniform(0.0, KAPPA_SQ, size=8)
        spec_t = landweber(sched, kappa_sq=KAPPA_SQ)
        gvals = filter_value(spec_t, us)
        np.testing.assert_allclose(us * gvals + residual_product(sched, us), 1.0, atol=1e-12)


def test_effective_lambda_and_step_sum():
    etas = [0.1, 0.2, 0.05, 0.15]
    spec = landweber(etas, kappa_sq=4.0)
    assert np.sum(spec.step_sizes) == pytest.approx(0.5, rel=1e-15)
    assert spec.lam == pytest.approx(2.0, rel=1e-15)
    assert tikhonov(KAPPA_SQ, 0.03).lam == 0.03


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
    np.testing.assert_array_equal(filter_value(padded, us), filter_value(plain, us))
    assert padded.lam == plain.lam
    with pytest.raises(InvalidParameterError):
        landweber([0.0, 0.0], kappa_sq=KAPPA_SQ)


@pytest.mark.parametrize("lam", [1e-300, math.nan, None, math.inf, 0.0])
def test_landweber_schedule_rejects_unreachable_levels(lam):
    with pytest.raises(InvalidParameterError):
        landweber_schedule_for(lam, KAPPA_SQ)
    with pytest.raises(InvalidParameterError):
        filter_from_tag("landweber", KAPPA_SQ, lam)


def test_landweber_schedule_is_capped_at_its_step_budget():
    eta = 1.0 / (2.0 * 1.01 * KAPPA_SQ)
    assert len(landweber_schedule_for(1.0 / (0.5 * MAX_LANDWEBER_STEPS * eta), KAPPA_SQ)) \
        <= MAX_LANDWEBER_STEPS // 2 + 1
    with pytest.raises(InvalidParameterError, match="Landweber steps"):
        landweber_schedule_for(1.0 / (2.0 * MAX_LANDWEBER_STEPS * eta), KAPPA_SQ)


def test_filter_value_domain_checks():
    spec = tikhonov(KAPPA_SQ, 0.1)
    with pytest.raises(DomainError):
        filter_value(spec, KAPPA_SQ * 1.01)
    with pytest.raises(DomainError):
        filter_value(spec, -0.5)


@pytest.mark.parametrize("build", [tikhonov, spectral_cutoff, tikhonov_bias_corrected])
@pytest.mark.parametrize("lam", [0.0, -0.2, math.nan, math.inf, None])
def test_every_filter_is_built_at_a_positive_finite_level(build, lam):
    with pytest.raises(InvalidParameterError, match="lambda must be positive and finite"):
        build(KAPPA_SQ, lam)


def test_landweber_level_is_checked_like_every_other():
    # A step mass of 1e-320 puts 1/sum(eta) beyond the largest double.
    with pytest.raises(InvalidParameterError, match="lambda must be positive and finite"):
        landweber([1e-320], kappa_sq=KAPPA_SQ)


@pytest.mark.parametrize("tag", FILTER_TAGS)
def test_default_filters_pass_their_own_certificates(tag):
    # Landweber at lambda = 0.2 runs 67 steps of 1/(2 * 1.01 * kappa_sq).
    spec = filter_from_tag(tag, KAPPA_SQ, 0.2)
    report = validate_filter(spec)
    assert report.passed, (tag, report)
    assert report.value_ok and report.residual_ok
    assert report.max_value_lhs <= spec.const_e * (1.0 + 1e-9)
    assert report.max_residual_lhs <= spec.const_f * (1.0 + 1e-9)


def test_validation_catches_an_undersized_residual_constant(monkeypatch):
    # Declaring qualification 1 forces F = (1/e) ~ 0.37, but the residual
    # polynomial starts at 1 near u = 0, so the certificate must fail.
    monkeypatch.setitem(filters.FILTER_FAMILIES, "landweber", (1.0, 1.0, (1.0 / math.e) ** 1.0))
    sched = np.full(40, 1.0 / (2.0 * KAPPA_SQ))
    spec = landweber(sched, kappa_sq=KAPPA_SQ)
    report = validate_filter(spec)
    assert not report.residual_ok
    assert not report.passed


def test_filter_from_tag_rejects_unknown_tags():
    with pytest.raises(InvalidParameterError):
        filter_from_tag("ridge", KAPPA_SQ, 0.1)


def test_an_unknown_kind_or_a_landweber_spec_without_steps_is_caught_when_built():
    with pytest.raises(InvalidParameterError,
                       match=r"unknown filter tag 'ridge'; expected one of \('tikhonov'"):
        FilterSpec("ridge", KAPPA_SQ, 0.1)
    with pytest.raises(InvalidParameterError, match="a landweber filter needs its step_sizes"):
        FilterSpec("landweber", KAPPA_SQ, 0.1)


def test_each_family_declares_its_constants_once():
    assert FILTER_TAGS == ("tikhonov", "landweber", "cutoff", "tikhonov_bc")
    assert filters.FILTER_FAMILIES["landweber"] == (3.0, 1.0, (3.0 / math.e) ** 3.0)
    for tag in FILTER_TAGS:
        spec = filter_from_tag(tag, KAPPA_SQ, 0.2)
        assert spec.kind == tag
        assert (spec.qualification, spec.const_e, spec.const_f) == filters.FILTER_FAMILIES[tag]


@pytest.mark.parametrize("kappa_sq", [0.0, -1.0, math.inf, math.nan])
@pytest.mark.parametrize("build", [tikhonov, spectral_cutoff, tikhonov_bias_corrected,
                                   lambda ksq, lam: landweber([0.1], ksq)])
def test_every_filter_needs_a_positive_finite_kernel_bound(build, kappa_sq):
    with pytest.raises(InvalidParameterError, match="kappa_sq must be positive and finite"):
        build(kappa_sq, 0.1)


def test_apply_filter_needs_one_label_per_gram_row():
    problem = build_problem(dim=20, gamma=1.0, zeta=0.5)
    g = gram(spectral_kernel(problem), np.linspace(0.1, 0.9, 5))
    with pytest.raises(InvalidParameterError, match="rhs length must match the Gram matrix"):
        apply_filter(tikhonov(problem.kappa_sq, 0.1), g, np.zeros(6))


def test_tikhonov_filter_solves_the_regularized_system():
    problem = build_problem(dim=20, gamma=1.0, zeta=0.5, noise_sd=0.1)
    kernel = spectral_kernel(problem)
    data = sample_dataset(problem, 40, seed=21)
    g = gram(kernel, data.inputs)
    lam = 0.05
    coeffs = apply_filter(tikhonov(problem.kappa_sq, lam), g, data.labels)
    n = len(data)
    direct = np.linalg.solve(g / n + lam * np.eye(n), data.labels / n)
    np.testing.assert_allclose(coeffs, direct, rtol=1e-9, atol=1e-12)
