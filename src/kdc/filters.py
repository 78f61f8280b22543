"""Spectral regularization filters and their admissibility checks.

A filter G_lambda approximates u -> 1/u on (0, kappa_sq]. A ``FilterSpec``
is one spectral estimator: the filter family together with the level lambda
it is built at, so nothing that applies it takes lambda again. Each family
is declared once, in ``FILTER_FAMILIES``, with its qualification tau and
constants (E, F); a spec picks and checks only the level (and, for
Landweber, the steps). The constants certify, for all lambda in (0, kappa_sq]:

* value bound:     sup_u |G_lambda(u)| u^alpha lambda^(1-alpha) <= E
                   for alpha in [0, 1],
* residual bound:  sup_u |1 - u G_lambda(u)| (u / lambda)^alpha <= F
                   for alpha in [0, tau].

``validate_filter`` checks both bounds numerically on grids and is wired
into the CLI so every shipped filter can be certified at runtime.

T steps of gradient descent are the Landweber filter G_T of K/n at
lambda = 1/sum(eta), so the gradient-descent trainers build a ``landweber``
spec and share the filter path of every other estimator;
``filter_from_tag`` turns a regularization level into the schedule that
reaches it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, InvalidParameterError
from .kernels import sym_eigendecompose
from .spectral_model import check_positive, reduce_through_init

#: Points in each of validate_filter's lambda and u grids.
DEFAULT_GRID_POINTS = 200

#: Safety factor applied when clamping planned step sizes against 1/kappa_sq.
CLAMP_SAFETY = 1.01

#: Relative slack on the declared constants during validation.
VALIDATION_RTOL = 1e-9

#: Most steps ``filter_from_tag`` gives a Landweber filter; a smaller lambda is rejected.
MAX_LANDWEBER_STEPS = 1_000_000

#: Each filter family's qualification tau and admissibility constants (E, F), by tag.
#: Spectral cut-off meets the residual bound for every alpha >= 0, so its tau is
#: infinite. Landweber's F is (tau/e)^tau at tau = 3, which keeps F >= 1 as the
#: residual bound needs when alpha -> 0; a smaller tau fails validation.
FILTER_FAMILIES = {
    "tikhonov": (1.0, 1.0, 1.0),
    "landweber": (3.0, 1.0, (3.0 / math.e) ** 3.0),
    "cutoff": (math.inf, 1.0, 1.0),
    "tikhonov_bc": (2.0, 2.0, 1.0),
}

FILTER_TAGS = tuple(FILTER_FAMILIES)


@dataclass(frozen=True, eq=False)
class FilterSpec:
    """A filter of family ``kind`` at level ``lam``; its constants are the family's.

    Landweber's ``step_sizes`` are a checked, read-only array at level lam = 1/sum(eta).
    """

    kind: str
    kappa_sq: float
    lam: float
    step_sizes: np.ndarray | None = None
    qualification: float = field(init=False)
    const_e: float = field(init=False)
    const_f: float = field(init=False)

    def __post_init__(self) -> None:
        if self.kind not in FILTER_FAMILIES:
            raise InvalidParameterError(
                f"unknown filter tag {self.kind!r}; expected one of {FILTER_TAGS}")
        if self.kind == "landweber":
            if self.step_sizes is None:
                raise InvalidParameterError("a landweber filter needs its step_sizes")
            steps = step_array(self.step_sizes).copy()
            if steps.ndim != 1:
                raise InvalidParameterError(f"step sizes must be 1-D, got shape {steps.shape}")
            if not (np.all(np.isfinite(steps) & (steps >= 0)) and steps.sum() > 0):
                raise InvalidParameterError(
                    "step sizes must be finite and nonnegative with a positive sum")
            steps.setflags(write=False)
            object.__setattr__(self, "step_sizes", steps)
        check_positive("kappa_sq", self.kappa_sq)
        check_positive("lambda", self.lam)
        if self.kind == "landweber":
            check_step_bound(self.step_sizes, self.kappa_sq)
            if self.lam != _step_level(self.step_sizes):
                raise InvalidParameterError(
                    f"a landweber filter's lambda must be 1/sum(step_sizes), got {self.lam!r}")
        for name, value in zip(("qualification", "const_e", "const_f"),
                               FILTER_FAMILIES[self.kind]):
            object.__setattr__(self, name, value)

    __reduce__ = reduce_through_init


def check_step_bound(steps, kappa_sq: float) -> None:
    """Raise unless every step is <= 1/kappa_sq: the Landweber, GD and SGM contract."""
    check_positive("kappa_sq", kappa_sq)
    if np.max(steps) > (1.0 + 1e-12) / kappa_sq:
        raise InvalidParameterError(
            f"step sizes must not exceed 1/kappa_sq = {1.0 / kappa_sq:.6g}"
        )


def step_array(steps) -> np.ndarray:
    """The steps as a float array; steps that are not numbers raise InvalidParameterError."""
    try:
        return np.asarray(steps, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise InvalidParameterError(
            "a step schedule must be a number, a Constant or a sequence of numbers") from None


def _step_level(steps) -> float:
    """A schedule's level 1/sum(eta), a Python float (NaN unless the sum is positive)."""
    total = float(np.sum(steps))
    return 1.0 / total if total > 0 else math.nan


def landweber(step_sizes, kappa_sq: float) -> FilterSpec:
    """Gradient-descent filter for a step-size schedule.

    G_t(u) = sum_k eta_k * prod_{i=k+1..t} (1 - eta_i u) at the effective
    level lambda = 1 / sum_k eta_k; :class:`FilterSpec` checks the schedule.
    """
    steps = np.atleast_1d(step_array(step_sizes))
    return FilterSpec("landweber", kappa_sq, _step_level(steps), steps)


def filter_from_tag(tag: str, kappa_sq: float, lam: float) -> FilterSpec:
    """Build a filter from its config-file tag at level ``lam``.

    Landweber runs t = ceil(1/(lam * eta)) steps of eta = 1/(2 * CLAMP_SAFETY * kappa_sq),
    at the level 1/(t * eta) at or just below ``lam``; t is at most MAX_LANDWEBER_STEPS.
    """
    if tag != "landweber":
        return FilterSpec(tag, kappa_sq, lam)
    check_positive("lambda", lam)
    check_positive("kappa_sq", kappa_sq)
    eta = 1.0 / (2.0 * CLAMP_SAFETY * kappa_sq)
    steps = 1.0 / (lam * eta) if lam * eta > 0.0 else math.inf
    if steps > MAX_LANDWEBER_STEPS:
        raise InvalidParameterError(
            f"lambda {lam:.3g} needs more than {MAX_LANDWEBER_STEPS} Landweber steps")
    return landweber(np.full(math.ceil(steps), eta), kappa_sq)


def landweber_recurrence(step_sizes, u: np.ndarray) -> np.ndarray:
    """Gradient-descent filter G_t(u) by the recurrence g <- g (1 - eta u) + eta.

    Takes any schedule, zero steps included; the Landweber filter, and so the
    gradient-descent trainers, use it.
    """
    g = np.zeros_like(u, dtype=float)
    for eta in step_sizes:
        g = g * (1.0 - eta * u) + eta
    return g


def _filter_values(spec: FilterSpec, u: np.ndarray) -> np.ndarray:
    """G(u) of ``spec`` at its level; Landweber's schedule fixes that level."""
    lam = spec.lam
    if spec.kind == "tikhonov":  # 1/(u + lambda)
        return 1.0 / (u + lam)
    if spec.kind == "cutoff":  # 1/u above the cutoff lambda, 0 below
        out = np.zeros_like(u)
        mask = u >= lam
        out[mask] = 1.0 / u[mask]
        return out
    if spec.kind == "tikhonov_bc":  # lambda/(lambda + u)^2 + 1/(lambda + u)
        return lam / (lam + u) ** 2 + 1.0 / (lam + u)
    return landweber_recurrence(spec.step_sizes, u)


def filter_value(spec: FilterSpec, u):
    """Evaluate G_lambda(u) at the spec's level for u in [0, kappa_sq]."""
    ua = np.asarray(u, dtype=float)
    if not np.all((ua >= 0.0) & (ua <= spec.kappa_sq * (1.0 + 1e-9))):  # NaN fails too
        raise DomainError(f"filter argument must lie in [0, {spec.kappa_sq:.6g}]")
    vals = _filter_values(spec, np.atleast_1d(ua))
    if np.isscalar(u) or np.ndim(u) == 0:
        return float(vals[0])
    return vals.reshape(ua.shape)


def apply_filter(spec: FilterSpec, g, rhs) -> np.ndarray:
    """Coefficients alpha = G_lambda(g/n) (rhs/n) for an n x n Gram array ``g``.

    This is the spectral-algorithm estimator in coefficient space: the
    returned alpha weight the kernel sections at the training inputs.
    :func:`kdc.trainers.sa_local` computes the same coefficients from the
    feature matrix; this n x n route is kept as the reference it is tested
    against.
    """
    mat = np.asarray(g, dtype=float)
    y = np.asarray(rhs, dtype=float)
    if y.shape != mat.shape[:1]:
        raise InvalidParameterError("rhs length must match the Gram matrix")
    n = y.size
    evals, evecs = sym_eigendecompose(mat / n)
    gv = filter_value(spec, evals)
    return evecs @ (np.asarray(gv) * (evecs.T @ y)) / n


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
    """Check the family's (E, F) constants on grids of (lambda, u, alpha).

    The certificate is the family's, so the spec is rebuilt at
    DEFAULT_GRID_POINTS geometric levels lambda in [1e-4, 1] whatever its
    own, and u runs over as many points in [1e-8, 1] * kappa_sq; each
    level's G(u) serves both bounds. The value bound is checked for
    alphas in {0, 1/4, 1/2, 3/4, 1} and the residual bound for those, 2 and
    the qualification, each at most the qualification. For Landweber the
    lambda grid collapses to the spec's own level 1/sum(eta); for spectral
    cutoff each lambda is added to its own u grid so the discontinuity
    itself is probed. Passes iff both maxima stay within the declared
    constants up to relative slack VALIDATION_RTOL.
    """
    ksq = spec.kappa_sq
    if spec.kind == "landweber":
        levels = [spec]
    else:
        levels = [replace(spec, lam=lam) for lam in np.geomspace(1e-4, 1.0, DEFAULT_GRID_POINTS)]
    us = np.geomspace(ksq * 1e-8, ksq, DEFAULT_GRID_POINTS)
    alphas = np.array([0.0, 0.25, 0.5, 0.75, 1.0, 2.0])
    if math.isfinite(spec.qualification):
        alphas = np.unique(np.append(alphas, spec.qualification))
    value_alphas = alphas[alphas <= 1.0]
    residual_alphas = alphas[alphas <= spec.qualification]

    max_value = 0.0
    max_residual = 0.0
    for level in levels:
        lam = level.lam
        u_local = us
        if spec.kind == "cutoff" and lam <= ksq * (1.0 + 1e-9):
            u_local = np.unique(np.append(us, lam))
        g = _filter_values(level, u_local)
        gvals = np.abs(g)
        rvals = np.abs(1.0 - u_local * g)
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
