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

T steps of gradient descent are the Landweber filter G_T of K/n, so the
gradient-descent trainers build a ``landweber`` spec and share the filter
path of every other estimator; ``landweber_schedule_for`` turns a
regularization level into the schedule that reaches it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidParameterError
from .kernels import GramMatrix, sym_eigendecompose

#: Points in each of validate_filter's lambda and u grids.
DEFAULT_GRID_POINTS = 200

#: Safety factor applied when clamping planned step sizes against 1/kappa_sq.
CLAMP_SAFETY = 1.01

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
    """Gradient-descent filter for a step-size schedule.

    G_t(u) = sum_k eta_k * prod_{i=k+1..t} (1 - eta_i u), with effective
    regularization lambda = 1 / sum_k eta_k. Declares E = 1 and
    F = (tau/e)^tau. The default qualification 3 keeps F >= 1, which the
    residual bound needs as alpha -> 0; declaring tau < e fails validation
    honestly rather than being patched over.

    Steps must satisfy 0 <= eta_k <= 1/kappa_sq with a positive sum, the
    schedule contract of gradient descent and SGM; a zero step leaves G_t
    unchanged.
    """
    steps = tuple(float(s) for s in np.atleast_1d(np.asarray(step_sizes, dtype=float)))
    if not all(math.isfinite(s) and s >= 0 for s in steps) or not sum(steps) > 0:
        raise InvalidParameterError("step sizes must be finite and nonnegative with a positive sum")
    check_step_bound(steps, kappa_sq)
    const_f = (qualification / math.e) ** qualification
    return FilterSpec(
        kind="landweber", qualification=float(qualification), const_e=1.0,
        const_f=const_f, kappa_sq=kappa_sq, step_sizes=steps,
    )


def landweber_schedule_for(lam: float, kappa_sq: float) -> np.ndarray:
    """Constant Landweber schedule matching a target regularization level.

    Uses eta = 1/(2 * CLAMP_SAFETY * kappa_sq) and t = ceil(1/(lam * eta))
    steps so the effective lambda = 1/(t * eta) sits at or just below ``lam``.
    """
    if lam <= 0:
        raise InvalidParameterError("lambda must be positive")
    eta = 1.0 / (2.0 * CLAMP_SAFETY * kappa_sq)
    steps = math.ceil(1.0 / (lam * eta))
    return np.full(steps, eta)


FILTER_TAGS = ("tikhonov", "landweber", "cutoff", "tikhonov_bc")


def filter_from_tag(tag: str, kappa_sq: float, lam: float) -> FilterSpec:
    """Build a filter from its config-file tag; Landweber runs to level ``lam``.

    The other filters take ``lam`` when they are applied, not here.
    """
    if tag == "tikhonov":
        return tikhonov(kappa_sq)
    if tag == "cutoff":
        return spectral_cutoff(kappa_sq)
    if tag == "tikhonov_bc":
        return tikhonov_bias_corrected(kappa_sq)
    if tag == "landweber":
        return landweber(landweber_schedule_for(lam, kappa_sq), kappa_sq)
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


def validate_filter(spec: FilterSpec) -> FilterValidationReport:
    """Check the declared (E, F) constants on grids of (lambda, u, alpha).

    Lambda runs over DEFAULT_GRID_POINTS geometric points in [1e-4, 1] and
    u over as many in [1e-8, 1] * kappa_sq. The value bound is checked for
    alphas in {0, 1/4, 1/2, 3/4, 1} and the residual bound for those, 2 and
    the qualification, each at most the qualification. For Landweber the
    lambda grid collapses to the schedule's effective lambda; for spectral
    cutoff each lambda is added to its own u grid so the discontinuity
    itself is probed. Passes iff both maxima stay within the declared
    constants up to relative slack VALIDATION_RTOL.
    """
    ksq = spec.kappa_sq
    if spec.kind == "landweber":
        lams = np.asarray([effective_lambda(spec)])
    else:
        lams = np.geomspace(1e-4, 1.0, DEFAULT_GRID_POINTS)
    us = np.geomspace(ksq * 1e-8, ksq, DEFAULT_GRID_POINTS)
    alphas = np.array([0.0, 0.25, 0.5, 0.75, 1.0, 2.0])
    if math.isfinite(spec.qualification):
        alphas = np.unique(np.append(alphas, spec.qualification))
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
