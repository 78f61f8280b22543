"""Reference quantities the tests check ``kdc`` against.

No command, demo or library path reaches these: each is an independent
route to a value the package computes another way (the Monte Carlo risk
beside the exact one, the product form of the gradient-descent filter beside
its recurrence) or a bound that a property test compares samples with.
"""
from __future__ import annotations

import math

import numpy as np

from kdc.errors import InsufficientDataError
from kdc.evaluation import _se
from kdc.filters import landweber_recurrence
from kdc.seeding import make_rng
from kdc.spectral_model import (
    SpectralProblem, _check_dim, _check_gamma, regression_value, sup_norm_bound,
)
from kdc.trainers import predict, resolve_schedule


def excess_risk_mc(model, problem: SpectralProblem, n_test: int, seed: int) -> tuple[float, float]:
    """Monte Carlo excess risk from fresh uniform test points, as (mean, standard error).

    Works for any kernel (predictions are evaluated pointwise) and reports
    the standard error of the mean squared error.
    """
    if n_test < 100:
        raise InsufficientDataError("need at least 100 test points")
    xs = make_rng(seed).random(n_test)
    errs = (np.asarray(predict(model, xs)) - regression_value(problem, xs)) ** 2
    return float(np.mean(errs)), _se(errs)


def textbook_basis(dim: int, x) -> np.ndarray:
    """The sine basis sqrt(2) sin(i pi x), i = 1..dim, evaluated directly at each point."""
    return math.sqrt(2.0) * np.sin(np.pi * np.outer(x, np.arange(1, dim + 1)))


def residual_product(step_sizes, u) -> np.ndarray | float:
    """prod_{i=1..t} (1 - eta_i u) for a step schedule; an empty one gives 1."""
    steps = np.atleast_1d(np.asarray(step_sizes, dtype=float))
    ua = np.asarray(u, dtype=float)
    out = np.ones_like(ua, dtype=float)
    for eta in steps:
        out = out * (1.0 - eta * ua)
    if np.isscalar(u) or np.ndim(u) == 0:
        return float(out)
    return out


def population_bias(problem: SpectralProblem, step_schedule, iterations: int) -> float:
    """Squared norm of the population gradient-descent bias after T steps.

    The population iterate is a_i sigma_i G_T(sigma_i), G_T the schedule's Landweber filter.
    """
    g = landweber_recurrence(resolve_schedule(step_schedule, iterations), problem.eigenvalues)
    resid = problem.eigenvalues * g - 1.0
    return float(np.sum((problem.target_coeffs * resid) ** 2))


def tail_mass(dim: int, gamma: float) -> float:
    """Upper bound on the spectral mass sum_{i > dim} i^(-1/gamma) dropped
    by truncation.

    Uses the integral comparison (gamma/(1-gamma)) * dim^(1 - 1/gamma) for
    gamma < 1. For gamma = 1 the harmonic tail diverges and +inf is
    returned: the truncated kernel itself is then the modeled object. dim
    and gamma follow the family's rules.
    """
    _check_dim(dim)
    _check_gamma(gamma)
    if gamma == 1.0:
        return math.inf
    return (gamma / (1.0 - gamma)) * dim ** (1.0 - 1.0 / gamma)


def second_moment_bound(problem: SpectralProblem) -> float:
    """Operative bound on E[y^2 | x]: ||f||_inf^2 + noise variance."""
    return sup_norm_bound(problem) ** 2 + problem.noise_sd**2
