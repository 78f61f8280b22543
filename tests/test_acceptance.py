"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py -v`` to see every line; under
default capture the lines still appear for failing criteria. The sweeps in
A1-A3 and A8 use the standard 200-mode benchmark problem with noise 0.3.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from kdc import (
    FilterSpec,
    SgmConfig,
    apply_filter,
    build_problem,
    decompose_error,
    derive_seed,
    filter_from_tag,
    fit_rate,
    gm_local,
    gram,
    landweber,
    regression_value,
    sa_local,
    sample_dataset,
    sgm_local,
    spectral_kernel,
    validate_filter,
)
from kdc.filters import FILTER_TAGS, filter_value
from kdc.harness import ExperimentConfig, run_experiment
from kdc.kernels import kernel_features
from kdc.seeding import TAG_INDEX
from oracles import residual_product

BASE_SEED = 20260822
N_GRID = [256, 512, 1024, 2048, 4096, 8192]
SLOPE_TOL = 0.15


def report(criterion: str, ok: bool, detail: str) -> str:
    line = f"{criterion} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, flush=True)
    return line


def sweep_config(**overrides) -> ExperimentConfig:
    base = dict(
        regime="cor1.1",
        n_list=N_GRID,
        dim=200,
        gamma=1.0,
        zeta=0.5,
        source_norm=1.0,
        noise_sd=0.3,
        m_rule="pow:0.4",
        replications=10,
        base_seed=BASE_SEED,
    )
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


@pytest.fixture(scope="session")
def a1_sweep():
    start = time.perf_counter()
    records = run_experiment(sweep_config())
    return records, time.perf_counter() - start


@pytest.fixture(scope="session")
def a3_sweep():
    cfg = sweep_config(algorithm="sa", regime="cor5", filter="tikhonov")
    start = time.perf_counter()
    records = run_experiment(cfg)
    return records, time.perf_counter() - start


def test_a1_distributed_sgm_learning_rate(a1_sweep):
    """Averaged one-pass SGM across 256..8192 should decay at least as fast as N^(-1/2).

    The guarantee is an upper bound over the whole source class, so only the
    slow side is checked: slope <= -0.5 + SLOPE_TOL with a clean power law.
    The shipped target is smoother than its certified zeta, and every grid
    point runs at the clamped step size 1/(CLAMP_SAFETY kappa^2), so the
    realized slope is steeper than -0.5.
    """
    records, elapsed = a1_sweep
    assert all(r.error == "" for r in records)
    fit = fit_rate([(r.n_total, r.risk_mean) for r in records])
    ok = fit.slope <= -0.5 + SLOPE_TOL and fit.r_squared >= 0.9
    ok = ok and elapsed <= 600.0
    report(
        "A1",
        ok,
        f"slope={fit.slope:.4f} (need <={-0.5 + SLOPE_TOL:.2f}), "
        f"r2={fit.r_squared:.4f} (need >=0.9), wall={elapsed:.1f}s (budget 600s)",
    )
    assert ok


def test_a2_capacity_dependent_rate():
    """Mini-batch multi-pass SGM at gamma=0.5 should track N^(-2/3)."""
    cfg = sweep_config(regime="cor2.2", gamma=0.5)
    start = time.perf_counter()
    records = run_experiment(cfg)
    elapsed = time.perf_counter() - start
    assert all(r.error == "" for r in records)
    fit = fit_rate([(r.n_total, r.risk_mean) for r in records])
    theory = -2.0 * 0.5 / (2.0 * 0.5 + 0.5)
    ok = abs(fit.slope - theory) <= SLOPE_TOL and fit.r_squared >= 0.9
    report(
        "A2",
        ok,
        f"slope={fit.slope:.4f} (need {theory:.4f}±{SLOPE_TOL}), r2={fit.r_squared:.4f}, "
        f"wall={elapsed:.1f}s",
    )
    assert ok


def test_a3_spectral_baseline_rate_and_comparison(a1_sweep, a3_sweep):
    """Distributed ridge regression at lambda = N^(-1/2), same data seeds as A1.

    As in A1, the rate check is one-sided (slope <= -0.5 + SLOPE_TOL): the
    guaranteed exponent bounds the risk from above only.
    """
    sgm_records, _ = a1_sweep
    sa_records, elapsed = a3_sweep
    assert all(r.error == "" for r in sa_records)
    # Identical data streams per N by construction.
    for s, t in zip(sgm_records, sa_records):
        assert s.n_total == t.n_total
        assert s.data_seed_first == t.data_seed_first

    fit = fit_rate([(r.n_total, r.risk_mean) for r in sa_records])
    slope_ok = fit.slope <= -0.5 + SLOPE_TOL and fit.r_squared >= 0.9

    ratios = [t.risk_mean / s.risk_mean for s, t in zip(sgm_records, sa_records)]
    ratio_ok = all(r <= 2.0 for r in ratios)

    report(
        "A3",
        slope_ok and ratio_ok,
        f"slope={fit.slope:.4f} (need <={-0.5 + SLOPE_TOL:.2f}), r2={fit.r_squared:.4f}, "
        f"max sa/sgm risk ratio={max(ratios):.3f} (need <=2), wall={elapsed:.1f}s",
    )
    assert ratio_ok
    assert slope_ok


def test_a4_error_decomposition_identity():
    """Bias + sample variance + computational variance must reassemble the risk."""
    problem = build_problem(dim=200, gamma=1.0, zeta=0.5, source_norm=1.0, noise_sd=0.3)
    t = 50
    eta = 1.0 / (4.0 * problem.kappa_sq * math.log(t))
    cfg = SgmConfig(
        partitions=2, batch_size=1, iterations=t, step_schedule=eta, base_seed=314
    )
    start = time.perf_counter()
    rep = decompose_error(problem, 128, cfg, replications=(100, 50))
    elapsed = time.perf_counter() - start
    ok = rep.identity_gap <= 3.0 * rep.combined_se and elapsed <= 120.0
    report(
        "A4",
        ok,
        f"total={rep.total:.5f} bias={rep.bias:.5f} sample_var={rep.sample_var:.6f} "
        f"comp_var={rep.comp_var:.6f} |gap|={rep.identity_gap:.2e} "
        f"<= 3*SE={3 * rep.combined_se:.2e}, wall={elapsed:.1f}s (budget 120s)",
    )
    assert ok


def test_a5_filter_certificates_and_residual_bounds():
    """All four filters pass their numeric certificates; gradient-descent
    polynomials satisfy the product identity and the spectral bounds."""
    ksq = build_problem(dim=200, gamma=1.0, zeta=0.5, noise_sd=0.3).kappa_sq
    failures = []

    for tag in FILTER_TAGS:
        # Landweber at lambda = 0.25 runs 54 steps of 1/(2 * 1.01 * kappa_sq).
        rep = validate_filter(filter_from_tag(tag, ksq, 0.25))
        if not rep.passed:
            failures.append(f"{tag} certificate")

    # Product identity u G_t(u) + prod(1 - eta u) = 1 to 1e-12.
    rng = np.random.default_rng(3)
    identity_err = 0.0
    schedules = [np.full(9, 0.07)] + [
        rng.uniform(0.005, 1.0 / ksq, size=rng.integers(5, 60)) for _ in range(3)
    ]
    us = np.linspace(0.0, ksq, 401)
    for sched in schedules:
        spec = landweber(sched, kappa_sq=ksq)
        g = filter_value(spec, us)
        identity_err = max(identity_err, float(np.max(np.abs(us * g + residual_product(sched, us) - 1.0))))
    if identity_err > 1e-12:
        failures.append(f"identity err {identity_err:.2e}")

    # Spectral bounds: u^a G_t(u) <= lam_t^(a-1) for a in [0,1] and
    # prod * u^a <= (a/e)^a lam_t^a for a in {0, 0.5, 1, 2}.
    for sched in schedules:
        lam_t = 1.0 / float(np.sum(sched))
        spec = landweber(sched, kappa_sq=ksq)
        g = filter_value(spec, us)
        pi = residual_product(sched, us)
        for a in (0.0, 0.5, 1.0):
            lhs = np.max(us**a * g)
            if lhs > lam_t ** (a - 1.0) * (1.0 + 1e-9):
                failures.append(f"value bound a={a}")
        for a in (0.0, 0.5, 1.0, 2.0):
            lhs = np.max(pi * us**a)
            cap = (a / math.e) ** a * lam_t**a if a > 0 else 1.0
            if lhs > cap * (1.0 + 1e-9):
                failures.append(f"residual bound a={a}")

    ok = not failures
    report(
        "A5",
        ok,
        f"4 filter certificates, identity err={identity_err:.2e} (gate 1e-12), "
        f"spectral bounds at a in {{0, 0.5, 1, 2}}"
        + ("" if ok else f"; failed: {failures}"),
    )
    assert ok, failures


def test_a6_estimator_cross_checks():
    """Independent solution routes must coincide at solver precision."""
    rng = np.random.default_rng(2024)
    max_tik = 0.0
    max_gm = 0.0
    max_sa = 0.0
    for trial in range(20):
        dim = int(rng.integers(5, 40))
        n = int(rng.integers(10, 51))
        noise = float(rng.uniform(0.0, 0.4))
        problem = build_problem(dim=dim, gamma=1.0, zeta=0.5, noise_sd=noise)
        kernel = spectral_kernel(problem)
        data = sample_dataset(problem, n, seed=1000 + trial)
        g = gram(kernel, data.inputs)
        feats = kernel_features(kernel, data.inputs)

        lam = float(rng.uniform(1e-3, 1.0))
        route_a = apply_filter(FilterSpec("tikhonov", problem.kappa_sq, lam), g, data.labels)
        route_b = np.linalg.solve(g / n + lam * np.eye(n), data.labels / n)
        max_tik = max(max_tik, float(np.max(np.abs(route_a - route_b)) / max(1.0, np.max(np.abs(route_b)))))

        t = int(rng.integers(5, 60))
        eta = float(rng.uniform(0.01, 1.0 / problem.kappa_sq))
        iterate = gm_local(data, eta, t, kernel).modes
        filtered = problem.eigenvalues * (feats.T @ apply_filter(
            landweber(np.full(t, eta), kappa_sq=problem.kappa_sq), g, data.labels))
        denom = max(1.0, float(np.max(np.abs(filtered))))
        max_gm = max(max_gm, float(np.max(np.abs(iterate - filtered)) / denom))

        # sa_local's mode-space route against the Gram route's modes, every filter.
        for tag in FILTER_TAGS:
            spec = filter_from_tag(tag, problem.kappa_sq, lam)
            dual = problem.eigenvalues * (feats.T @ apply_filter(spec, g, data.labels))
            primal = sa_local(data, spec, kernel).modes
            denom = max(1.0, float(np.max(np.abs(dual))))
            max_sa = max(max_sa, float(np.max(np.abs(primal - dual)) / denom))

    clean = build_problem(dim=20, gamma=1.0, zeta=0.5, noise_sd=0.0)
    kernel = spectral_kernel(clean)
    data = sample_dataset(clean, 30, seed=77)
    noiseless = replace(data, labels=regression_value(clean, data.inputs))
    exact_gap = float(
        np.max(
            np.abs(
                gm_local(data, 0.1, 25, kernel).modes
                - gm_local(noiseless, 0.1, 25, kernel).modes
            )
        )
    )

    ok = max_tik <= 1e-8 and max_gm <= 1e-10 and max_sa <= 1e-10 and exact_gap == 0.0
    report(
        "A6",
        ok,
        f"tikhonov vs direct solve rel err={max_tik:.2e} (gate 1e-8, 20 draws), "
        f"gradient vs filter rel err={max_gm:.2e} (gate 1e-10, 20 draws), "
        f"sa_local vs apply_filter rel err={max_sa:.2e} (gate 1e-10, 4 filters x 20 draws), "
        f"noiseless idealized==batch gap={exact_gap:.1e} (exact)",
    )
    assert ok


def test_a7_sgm_is_unbiased_for_gradient_descent():
    """Averaging SGM over index draws recovers full gradient descent."""
    problem = build_problem(dim=20, gamma=1.0, zeta=0.5, source_norm=1.0, noise_sd=0.1)
    kernel = spectral_kernel(problem)
    data = sample_dataset(problem, 8, seed=99)
    t, eta, reps = 20, 0.1, 2000

    modes = np.empty((reps, problem.dim))
    for s in range(reps):
        cfg = SgmConfig(
            partitions=1,
            batch_size=1,
            iterations=t,
            step_schedule=eta,
            base_seed=derive_seed(7, TAG_INDEX, s),
        )
        modes[s] = sgm_local(data, cfg, kernel, 0).modes

    # At n = 8 < dim = 20 the map alpha -> sigma * Phi^T alpha is injective, so unbiased
    # modes are unbiased coefficients.
    target = gm_local(data, eta, t, kernel).modes
    mean = modes.mean(axis=0)
    se = modes.std(axis=0, ddof=1) / math.sqrt(reps)
    z = np.abs(mean - target) / se
    ok = bool(np.max(z) <= 4.0)
    report("A7", ok,
           f"max |z| over {problem.dim} modes = {np.max(z):.2f} (gate 4.0, {reps} index seeds)")
    assert ok


def test_a8_partition_budget_direction():
    """At N=4096: a within-budget split tracks m=1; oversplitting collapses."""
    risks = {}
    for m_rule in (1, "pow:0.4", 2048):
        cfg = sweep_config(n_list=[4096], m_rule=m_rule, replications=5, base_seed=11)
        rec = run_experiment(cfg)[0]
        assert rec.error == ""
        risks[m_rule] = rec.risk_mean
    moderate = risks["pow:0.4"]
    single = risks[1]
    extreme = risks[2048]
    within = max(moderate, single) / min(moderate, single)
    blowup = extreme / single
    ok = within <= 3.0 and blowup >= 3.0
    report(
        "A8",
        ok,
        f"risk(m=1)={single:.5f}, risk(m=16)={moderate:.5f} (ratio {within:.2f} <= 3), "
        f"risk(m=2048)={extreme:.5f} ({blowup:.1f}x worse, need >= 3x)",
    )
    assert ok
