"""Spectral regularization filters and their admissibility checks.

A filter G_lambda approximates u -> 1/u on (0, kappa_sq]. Each filter
declares a qualification tau and constants (E, F) that certify, for all
lambda in (0, kappa_sq]:

* value bound:     sup_u |G_lambda(u)| u^alpha lambda^(1-alpha) <= E
                   for alpha in [0, 1],
* residual bound:  sup_u |1 - u G_lambda(u)| (u / lambda)^alpha <= F
                   for alpha in [0, tau].

``validate_filter`` checks both bounds numerically on grids and is wired
into the CLI so every shipped filter can be certified at runtime.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidParameterError
from .kernels import GramMatrix, sym_eigendecompose

#: Grid sizes used when validate_filter is called without explicit grids.
DEFAULT_GRID_POINTS = 200

#: Relative slack on the declared constants during validation.
VALIDATION_RTOL = 1e-9


@dataclass(frozen=True, eq=False)
class FilterSpec:
    """A regularization filter with its declared admissibility constants."""

    kind: str
    qualification: float
    const_e: float
    const_f: float
    kappa_sq: float
    step_sizes: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kappa_sq <= 0 or not math.isfinite(self.kappa_sq):
            raise InvalidParameterError("kappa_sq must be positive and finite")
        if self.qualification <= 0:
            raise InvalidParameterError("qualification must be positive")
        if self.const_e <= 0 or self.const_f <= 0:
            raise InvalidParameterError("filter constants must be positive")


def tikhonov(kappa_sq: float) -> FilterSpec:
    """G_lambda(u) = 1 / (u + lambda); qualification 1, E = F = 1."""
    return FilterSpec(
        kind="tikhonov", qualification=1.0, const_e=1.0, const_f=1.0,
        kappa_sq=kappa_sq,
    )


def spectral_cutoff(kappa_sq: float) -> FilterSpec:
    """G_lambda(u) = 1/u above the cutoff lambda, 0 below; E = F = 1.

    Holds the residual bound for every alpha >= 0, so the qualification is
    recorded as infinity.
    """
    return FilterSpec(
        kind="cutoff", qualification=math.inf, const_e=1.0, const_f=1.0,
        kappa_sq=kappa_sq,
    )


def tikhonov_bias_corrected(kappa_sq: float) -> FilterSpec:
    """G_lambda(u) = lambda/(lambda+u)^2 + 1/(lambda+u); qualification 2, E = 2."""
    return FilterSpec(
        kind="tikhonov_bc", qualification=2.0, const_e=2.0, const_f=1.0,
        kappa_sq=kappa_sq,
    )


def check_step_bound(steps, kappa_sq: float) -> None:
    """Raise unless every step is <= 1/kappa_sq: the Landweber, GD and SGM contract."""
    if np.max(steps) > (1.0 + 1e-12) / kappa_sq:
        raise InvalidParameterError(
            f"step sizes must not exceed 1/kappa_sq = {1.0 / kappa_sq:.6g}"
        )


def landweber(step_sizes, kappa_sq: float, qualification: float = 3.0) -> FilterSpec:
    """Gradient-descent filter for a positive step-size schedule.

    G_t(u) = sum_k eta_k * prod_{i=k+1..t} (1 - eta_i u), with effective
    regularization lambda = 1 / sum_k eta_k. Declares E = 1 and
    F = (tau/e)^tau. The default qualification 3 keeps F >= 1, which the
    residual bound needs as alpha -> 0; declaring tau < e fails validation
    honestly rather than being patched over.

    Steps must satisfy 0 < eta_k <= 1/kappa_sq.
    """
    steps = tuple(float(s) for s in np.atleast_1d(np.asarray(step_sizes, dtype=float)))
    if len(steps) == 0:
        raise InvalidParameterError("landweber needs at least one step")
    if not all(math.isfinite(s) and s > 0 for s in steps):
        raise InvalidParameterError("step sizes must be positive and finite")
    check_step_bound(steps, kappa_sq)
    const_f = (qualification / math.e) ** qualification
    return FilterSpec(
        kind="landweber", qualification=float(qualification), const_e=1.0,
        const_f=const_f, kappa_sq=kappa_sq, step_sizes=steps,
    )


FILTER_TAGS = ("tikhonov", "landweber", "cutoff", "tikhonov_bc")


def filter_from_tag(tag: str, kappa_sq: float, **kwargs) -> FilterSpec:
    """Build a filter from its config-file tag."""
    if tag == "tikhonov":
        return tikhonov(kappa_sq)
    if tag == "cutoff":
        return spectral_cutoff(kappa_sq)
    if tag == "tikhonov_bc":
        return tikhonov_bias_corrected(kappa_sq)
    if tag == "landweber":
        return landweber(kappa_sq=kappa_sq, **kwargs)
    raise InvalidParameterError(f"unknown filter tag {tag!r}; expected one of {FILTER_TAGS}")


def step_sum(spec: FilterSpec) -> float:
    """Total step mass of a Landweber schedule."""
    if spec.step_sizes is None:
        raise InvalidParameterError("filter has no step schedule")
    return float(np.sum(spec.step_sizes))


def effective_lambda(spec: FilterSpec, lam: float | None = None) -> float:
    """Regularization level actually used: 1/sum(eta) for Landweber, else lam."""
    if spec.kind == "landweber":
        return 1.0 / step_sum(spec)
    if lam is None or lam <= 0:
        raise InvalidParameterError("lambda must be positive")
    return float(lam)


def residual_product(step_sizes, u, start: int = 1) -> np.ndarray | float:
    """prod_{i=start..t} (1 - eta_i u) for a step schedule (1-indexed).

    An empty range (start > t) gives 1.
    """
    steps = np.atleast_1d(np.asarray(step_sizes, dtype=float))
    ua = np.asarray(u, dtype=float)
    out = np.ones_like(ua, dtype=float)
    for eta in steps[start - 1:]:
        out = out * (1.0 - eta * ua)
    if np.isscalar(u) or np.ndim(u) == 0:
        return float(out)
    return out


def landweber_recurrence(step_sizes, u: np.ndarray) -> np.ndarray:
    """Gradient-descent filter G_t(u) by the recurrence g <- g (1 - eta u) + eta.

    Takes any schedule, zero steps included; the Landweber filter, the
    gradient-descent trainers and the population iterates all use it.
    """
    g = np.zeros_like(u, dtype=float)
    for eta in step_sizes:
        g = g * (1.0 - eta * u) + eta
    return g


def _filter_values(spec: FilterSpec, lam: float | None, u: np.ndarray) -> np.ndarray:
    if spec.kind == "tikhonov":
        return 1.0 / (u + lam)
    if spec.kind == "cutoff":
        out = np.zeros_like(u)
        mask = u >= lam
        out[mask] = 1.0 / u[mask]
        return out
    if spec.kind == "tikhonov_bc":
        return lam / (lam + u) ** 2 + 1.0 / (lam + u)
    if spec.kind == "landweber":
        return landweber_recurrence(spec.step_sizes, u)
    raise InvalidParameterError(f"unknown filter kind {spec.kind!r}")


def filter_value(spec: FilterSpec, lam: float | None, u):
    """Evaluate G_lambda(u) for u in [0, kappa_sq].

    ``lam`` is ignored for Landweber (the schedule fixes it) and must be
    positive otherwise.
    """
    if spec.kind != "landweber":
        if lam is None or lam <= 0 or not math.isfinite(lam):
            raise InvalidParameterError("lambda must be positive and finite")
    ua = np.asarray(u, dtype=float)
    if np.any(ua < 0.0) or np.any(ua > spec.kappa_sq * (1.0 + 1e-9)):
        raise DomainError(f"filter argument must lie in [0, {spec.kappa_sq:.6g}]")
    vals = _filter_values(spec, lam, np.atleast_1d(ua))
    if np.isscalar(u) or np.ndim(u) == 0:
        return float(vals[0])
    return vals.reshape(ua.shape)


def apply_filter(spec: FilterSpec, lam: float | None, g: GramMatrix, rhs) -> np.ndarray:
    """Coefficients alpha = G_lambda(gram/n) (rhs/n) via eigendecomposition.

    This is the spectral-algorithm estimator in coefficient space: the
    returned alpha weight the kernel sections at the training inputs.
    :func:`kdc.trainers.sa_local` computes the same coefficients from the
    feature matrix; this n x n route is kept as the reference it is tested
    against.
    """
    y = np.asarray(rhs, dtype=float)
    if y.shape != (g.n,):
        raise InvalidParameterError("rhs length must match the Gram matrix")
    evals, evecs = sym_eigendecompose(g.entries / g.n)
    gv = filter_value(spec, lam, evals)
    return evecs @ (np.asarray(gv) * (evecs.T @ y)) / g.n


@dataclass(frozen=True)
class FilterValidationReport:
    """Outcome of the numeric admissibility check for one filter."""

    kind: str
    qualification: float
    const_e: float
    const_f: float
    max_value_lhs: float
    max_residual_lhs: float
    value_ok: bool
    residual_ok: bool
    passed: bool


def _default_alpha_grid(spec: FilterSpec) -> np.ndarray:
    base = [0.0, 0.25, 0.5, 0.75, 1.0, 2.0]
    if math.isfinite(spec.qualification):
        base.append(spec.qualification)
    return np.unique(np.asarray(base, dtype=float))


def validate_filter(
    spec: FilterSpec,
    kappa_sq: float | None = None,
    lambda_grid=None,
    u_grid=None,
    alpha_grid=None,
) -> FilterValidationReport:
    """Check the declared (E, F) constants on grids of (lambda, u, alpha).

    The value bound is checked for grid alphas in [0, 1] and the residual
    bound for grid alphas in [0, qualification]. For Landweber the lambda
    grid collapses to the schedule's effective lambda; for spectral cutoff
    each lambda is added to its own u grid so the discontinuity itself is
    probed. Passes iff both maxima stay within the declared constants up to
    relative slack VALIDATION_RTOL.
    """
    ksq = spec.kappa_sq if kappa_sq is None else float(kappa_sq)
    if ksq <= 0:
        raise InvalidParameterError("kappa_sq must be positive")

    if lambda_grid is None:
        lambda_grid = np.geomspace(1e-4, 1.0, DEFAULT_GRID_POINTS)
    lams = np.atleast_1d(np.asarray(lambda_grid, dtype=float))
    if spec.kind == "landweber":
        lams = np.asarray([effective_lambda(spec)])
    if np.any(lams <= 0):
        raise InvalidParameterError("lambda grid must be positive")

    if u_grid is None:
        u_grid = np.geomspace(ksq * 1e-8, ksq, DEFAULT_GRID_POINTS)
    us = np.atleast_1d(np.asarray(u_grid, dtype=float))
    if np.any(us <= 0) or np.any(us > ksq * (1.0 + 1e-9)):
        raise InvalidParameterError("u grid must lie in (0, kappa_sq]")

    if alpha_grid is None:
        alphas = _default_alpha_grid(spec)
    else:
        alphas = np.unique(np.atleast_1d(np.asarray(alpha_grid, dtype=float)))
    if np.any(alphas < 0):
        raise InvalidParameterError("alpha grid must be nonnegative")

    value_alphas = alphas[alphas <= 1.0]
    residual_alphas = alphas[alphas <= spec.qualification]

    max_value = 0.0
    max_residual = 0.0
    for lam in lams:
        u_local = us
        if spec.kind == "cutoff" and lam <= ksq * (1.0 + 1e-9):
            u_local = np.unique(np.append(us, lam))
        gvals = np.abs(_filter_values(spec, lam, u_local))
        rvals = np.abs(1.0 - u_local * _filter_values(spec, lam, u_local))
        for alpha in value_alphas:
            lhs = float(np.max(gvals * u_local**alpha * lam ** (1.0 - alpha)))
            max_value = max(max_value, lhs)
        for alpha in residual_alphas:
            lhs = float(np.max(rvals * (u_local / lam) ** alpha))
            max_residual = max(max_residual, lhs)

    value_ok = max_value <= spec.const_e * (1.0 + VALIDATION_RTOL)
    residual_ok = max_residual <= spec.const_f * (1.0 + VALIDATION_RTOL)
    return FilterValidationReport(
        kind=spec.kind,
        qualification=spec.qualification,
        const_e=spec.const_e,
        const_f=spec.const_f,
        max_value_lhs=max_value,
        max_residual_lhs=max_residual,
        value_ok=value_ok,
        residual_ok=residual_ok,
        passed=value_ok and residual_ok,
    )
