from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from kdc import (
    Dataset,
    DegenerateInputError,
    FilterSpec,
    InsufficientDataError,
    InvalidParameterError,
    KernelMismatchError,
    Model,
    SgmConfig,
    average_models,
    basis_matrix,
    build_problem,
    decompose_error,
    distributed_sa,
    excess_risk_exact,
    fit_rate,
    gm_local,
    kernel_cross,
    mode_projection,
    partition_data,
    plan_parameters,
    predict,
    sample_dataset,
    sgm_local,
    spectral_kernel,
    theory_exponent,
)
from kdc.seeding import TAG_DATA, TAG_INDEX, TAG_PARTITION, derive_seed
from oracles import excess_risk_mc


@pytest.fixture(scope="module")
def kernel(small_problem):
    return spectral_kernel(small_problem)


@pytest.fixture(scope="module")
def trained(small_problem, kernel):
    data = sample_dataset(small_problem, 40, seed=14)
    cfg = SgmConfig(partitions=1, batch_size=2, iterations=60, step_schedule=0.1, base_seed=3)
    return sgm_local(data, cfg, kernel, 0)


def test_mode_projection_of_a_single_section(small_problem, kernel):
    # The kernel section K(x0, .) has i-th mode coefficient sigma_i * phi_i(x0): a model
    # with those modes predicts the section, and its projection is its own modes.
    x0 = 0.3
    expected = small_problem.eigenvalues * basis_matrix(small_problem.dim, np.array([x0]))[0]
    model = Model(expected, kernel)
    xs = np.linspace(0.05, 0.95, 7)
    np.testing.assert_allclose(predict(model, xs), kernel_cross(kernel, xs, np.array([x0]))[:, 0],
                               rtol=1e-12, atol=1e-12)
    proj = mode_projection(small_problem, model)
    np.testing.assert_array_equal(proj, expected)
    assert proj is model.modes
    with pytest.raises(ValueError):
        model.modes[0] = 0.0


def test_mode_projection_rejects_a_non_model(small_problem, trained):
    with pytest.raises(InvalidParameterError):
        mode_projection(small_problem, trained.modes)


def test_mode_projection_rejects_a_model_of_another_problem(trained):
    other = build_problem(dim=20, gamma=0.5, zeta=0.5, source_norm=1.0, noise_sd=0.1)
    with pytest.raises(KernelMismatchError):
        mode_projection(other, trained)


def test_exact_risk_of_the_zero_model(small_problem, kernel):
    zero = Model(np.zeros(small_problem.dim), kernel)
    risk = excess_risk_exact(zero, small_problem)
    assert type(risk) is float
    expected = float(np.sum(small_problem.target_coeffs**2))
    assert risk == pytest.approx(expected, rel=1e-12)


def test_exact_risk_is_the_squared_mode_distance(small_problem, trained):
    proj = mode_projection(small_problem, trained)
    expected = float(np.sum((proj - small_problem.target_coeffs) ** 2))
    assert excess_risk_exact(trained, small_problem) == pytest.approx(expected, rel=1e-12)


def test_exact_risk_is_invariant_under_sample_reordering(small_problem, kernel):
    # A filter fit does not depend on the order of its rows.
    data = sample_dataset(small_problem, 40, seed=14)
    perm = np.random.default_rng(1).permutation(len(data))
    shuffled = dataclasses.replace(data, inputs=data.inputs[perm], labels=data.labels[perm])
    a = excess_risk_exact(gm_local(data, 0.1, 60, kernel), small_problem)
    b = excess_risk_exact(gm_local(shuffled, 0.1, 60, kernel), small_problem)
    assert b == pytest.approx(a, rel=1e-12)


def test_monte_carlo_risk_agrees_with_the_exact_value(small_problem, trained):
    exact = excess_risk_exact(trained, small_problem)
    mc, se = excess_risk_mc(trained, small_problem, n_test=60000, seed=10)
    assert se > 0.0
    assert abs(mc - exact) <= 4.0 * se


def test_monte_carlo_risk_needs_a_real_test_set(small_problem, trained):
    with pytest.raises(InsufficientDataError):
        excess_risk_mc(trained, small_problem, n_test=99, seed=0)


def test_risk_applies_to_averaged_models(small_problem, kernel):
    data = sample_dataset(small_problem, 32, seed=8)
    cfg = SgmConfig(partitions=1, batch_size=1, iterations=30, step_schedule=0.1, base_seed=2)
    a = sgm_local(data, cfg, kernel, 0)
    b = sgm_local(data, cfg, kernel, 1)
    avg = average_models([a, b])
    pa = mode_projection(small_problem, a)
    pb = mode_projection(small_problem, b)
    np.testing.assert_allclose(
        mode_projection(small_problem, avg), 0.5 * (pa + pb), rtol=1e-12
    )
    risk = excess_risk_exact(avg, small_problem)
    assert risk >= 0.0


# ---------------------------------------------------------------------------
# error decomposition


def test_decomposition_identity_across_partition_and_batch_settings(noiseless_small_problem):
    problem = build_problem(dim=20, gamma=1.0, zeta=0.5, source_norm=1.0, noise_sd=0.2)
    for m, b in ((1, 1), (2, 1), (2, 2)):
        cfg = SgmConfig(
            partitions=m, batch_size=b, iterations=15, step_schedule=0.1, base_seed=101
        )
        report = decompose_error(problem, 32, cfg, replications=(50, 20))
        assert report.identity_ok(3.0), (m, b, report.identity_gap, report.combined_se)
        assert report.total > 0.0
        assert report.bias >= 0.0
        assert report.sample_var >= 0.0 and report.comp_var >= 0.0
        assert report.n_data == 50 and report.n_index == 20


def test_decomposition_matches_a_loop_over_index_replications(small_problem, kernel):
    # The reference trains every (dataset, index seed, partition) run on its
    # own and reads its modes; decompose_error runs them in lockstep.
    cfg = SgmConfig(partitions=2, batch_size=2, iterations=15, step_schedule=0.1, base_seed=7)
    report = decompose_error(small_problem, 32, cfg, replications=(50, 20))
    total, comp_var = [], []
    for d in range(50):
        data = sample_dataset(small_problem, 32, derive_seed(7, TAG_DATA, d))
        subs = partition_data(data, 2, derive_seed(7, TAG_PARTITION, d))
        batch = sum(mode_projection(small_problem, gm_local(sub, 0.1, 15, kernel)) for sub in subs)
        for r in range(20):
            cfg_r = dataclasses.replace(cfg, base_seed=derive_seed(7, TAG_INDEX, d, r))
            sgm = sum(
                mode_projection(small_problem, sgm_local(sub, cfg_r, kernel, s))
                for s, sub in enumerate(subs)
            )
            total.append(np.sum((sgm / 2 - small_problem.target_coeffs) ** 2))
            comp_var.append(np.sum((sgm / 2 - batch / 2) ** 2))
    assert report.total == pytest.approx(np.mean(total), rel=1e-12)
    assert report.comp_var == pytest.approx(np.mean(comp_var), rel=1e-12)


@pytest.mark.parametrize("n_total", [32, 64])
def test_decomposition_fits_both_label_columns_as_separate_calls_would(
        monkeypatch, small_problem, n_total):
    # decompose_error fits the noiseless and the noisy labels of a partition
    # from one factorization; fitting them one column at a time (n_local
    # 16 < dim = 20 < 32) must give the same report to 1e-12.
    from kdc import trainers

    cfg = SgmConfig(partitions=2, batch_size=2, iterations=15, step_schedule=0.1, base_seed=5)
    joint = decompose_error(small_problem, n_total, cfg, replications=(50, 20))
    fit = trainers._mode_filter
    monkeypatch.setattr(trainers, "_mode_filter", lambda kernel, feats, y, spec: np.stack(
        [fit(kernel, feats, column, spec) for column in y.T]))
    separate = decompose_error(small_problem, n_total, cfg, replications=(50, 20))
    for name in ("total", "bias", "sample_var", "comp_var",
                 "se_total", "se_bias", "se_sample_var", "se_comp_var"):
        assert getattr(joint, name) == pytest.approx(getattr(separate, name), rel=1e-12), name


@pytest.mark.parametrize("n_total", [32, 64])  # n_local 16 and 32, dim 20
def test_decomposition_gives_the_same_bits_without_sampled_features(
        monkeypatch, small_problem, n_total):
    from kdc import evaluation

    cfg = SgmConfig(partitions=2, batch_size=2, iterations=15, step_schedule=0.1, base_seed=5)
    sampled = decompose_error(small_problem, n_total, cfg, replications=(50, 20))
    sample = evaluation.sample_dataset

    def bare_sample(*args):
        data = sample(*args)
        return Dataset(data.inputs, data.labels)

    monkeypatch.setattr(evaluation, "sample_dataset", bare_sample)
    bare = decompose_error(small_problem, n_total, cfg, replications=(50, 20))
    assert dataclasses.asdict(sampled) == dataclasses.asdict(bare)


def test_decomposition_enforces_minimum_replications(small_problem):
    # Both counts follow the integer rule and the replication bound too.
    cfg = SgmConfig(partitions=1, batch_size=1, iterations=5, step_schedule=0.1, base_seed=0)
    for reps in [(49, 20), (50, 19), (50.0, 20), (50, 20.0), (True, 20), (2**62, 20),
                 (50, 2**62)]:
        with pytest.raises(InvalidParameterError):
            decompose_error(small_problem, 16, cfg, replications=reps)


def test_oversplitting_saturates_the_averaged_estimator():
    # On a very smooth target, splitting past the guarantee threshold must
    # not help: full splitting (m = N, one point per machine) has to be at
    # least as bad as a moderate split.
    problem = build_problem(dim=50, gamma=1.0, zeta=2.0, source_norm=1.0, noise_sd=0.3)
    kernel = spectral_kernel(problem)
    n = 256
    lam = plan_parameters("cor5", n, 1, zeta=2.0, gamma=1.0).lam
    spec = FilterSpec("tikhonov", problem.kappa_sq, lam)
    data = sample_dataset(problem, n, seed=13)
    moderate = distributed_sa(data, spec, kernel, 32, partition_seed=13)
    extreme = distributed_sa(data, spec, kernel, 256, partition_seed=13)
    risk_moderate = excess_risk_exact(moderate, problem)
    risk_extreme = excess_risk_exact(extreme, problem)
    assert risk_moderate <= risk_extreme


# ---------------------------------------------------------------------------
# rate fitting


def test_fit_rate_recovers_an_exact_power_law():
    ns = np.array([64, 128, 256, 512, 1024], dtype=float)
    points = [(int(n), 2.5 * n ** -0.75) for n in ns]
    fit = fit_rate(points)
    assert fit.slope == pytest.approx(-0.75, abs=1e-12)
    assert fit.intercept == pytest.approx(np.log(2.5), abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.n_points == 5


def test_fit_rate_noisy_oracle():
    # Multiplicative +/-10% noise around slope -2/3; the fitted slope was
    # computed once with an independent polyfit and frozen here.
    rng = np.random.default_rng(7)
    ns = np.array([2**k for k in range(8, 18, 2)], dtype=float)
    risks = 3.0 * ns ** (-2.0 / 3.0) * (1.0 + 0.1 * (2 * rng.random(ns.size) - 1))
    fit = fit_rate(list(zip(ns.astype(int), risks)))
    assert fit.slope == pytest.approx(-0.6857079785462177, rel=1e-12)
    assert 0.9 < fit.r_squared <= 1.0


def test_fit_rate_burn_in_drops_leading_points():
    points = [(16, 1.0), (32, 0.9), (64, 0.25), (128, 0.125), (256, 0.0625)]
    full = fit_rate(points)
    tail = fit_rate(points, burn_in=2)
    assert tail.burn_in == 2
    assert tail.n_points == 3
    assert tail.slope == pytest.approx(-1.0, abs=1e-12)
    assert tail.slope < full.slope + 0.5


def test_fit_rate_rejects_degenerate_input():
    with pytest.raises(InsufficientDataError):
        fit_rate([(16, 1.0), (32, 0.5)])
    with pytest.raises(InsufficientDataError):
        fit_rate([(16, 1.0), (32, 0.5), (64, 0.25)], burn_in=1)
    with pytest.raises(InvalidParameterError):
        fit_rate([(16, 1.0), (16, 0.5), (32, 0.25)])
    with pytest.raises(DegenerateInputError):
        fit_rate([(16, 1.0), (32, 0.0), (64, 0.25)])
    with pytest.raises(InvalidParameterError):
        fit_rate([(16, 1.0), (32, 0.5), (64, 0.25)], burn_in=-1)


@pytest.mark.parametrize("n", [math.inf, -math.inf, math.nan, 0, -16, 0.5])
def test_fit_rate_rejects_a_sample_size_that_is_not_finite_and_at_least_one(n):
    with pytest.raises(InvalidParameterError, match="sample sizes must be finite and >= 1"):
        fit_rate([(n, 2.0), (32, 0.5), (64, 0.25), (128, 0.125)])


@pytest.mark.parametrize("n", [1000.9, True, np.True_])
def test_fit_rate_rejects_a_sample_size_that_is_not_a_whole_number(n):
    with pytest.raises(InvalidParameterError, match="sample sizes must be finite and >= 1 and whole"):
        fit_rate([(n, 1.0), (2000, 0.5), (4000, 0.25), (8000, 0.125)])


def test_fit_rate_reads_numpy_integers_and_whole_floats_as_sample_sizes():
    risks = (1.0, 0.5, 0.25)
    expected = fit_rate(list(zip((1000, 2000, 4000), risks)))
    for ns in (np.array([1000, 2000, 4000]), (1000.0, 2000.0, 4000.0)):
        assert fit_rate(list(zip(ns, risks))) == expected


@pytest.mark.parametrize("burn_in", [1.5, 1.0, True, np.int64(1)])
def test_fit_rate_burn_in_follows_the_integer_rule(burn_in):
    points = [(16, 1.0), (32, 0.5), (64, 0.25), (128, 0.125)]
    with pytest.raises(InvalidParameterError, match="burn_in must be an integer"):
        fit_rate(points, burn_in=burn_in)


def test_theory_exponent_table():
    assert theory_exponent(0.5, 1.0) == pytest.approx(-0.5)
    assert theory_exponent(0.5, 0.5) == pytest.approx(-2.0 / 3.0)
    assert theory_exponent(2.0, 1.0) == pytest.approx(-0.8)
    # Below the critical capacity the denominator saturates at 1.
    assert theory_exponent(0.25, 0.25) == pytest.approx(-0.5)
