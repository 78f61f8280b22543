"""Risk evaluation, error decomposition, and log-log rate fitting.

Every model carries its mode vector ``modes``, the coefficients of its
predictor in the problem's eigenbasis. For synthetic spectral problems the
excess risk is therefore exact: ||modes - target_coeffs||^2. A Monte Carlo
estimate from pointwise predictions is kept alongside as a cross-check of
the exact one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInputError,
    InsufficientDataError,
    InvalidParameterError,
    KernelMismatchError,
)
from .filters import landweber
from .kernels import spectral_kernel
from .seeding import TAG_DATA, TAG_INDEX, TAG_PARTITION, derive_seed, make_rng
from .spectral_model import (
    SpectralProblem, check_exponents, is_finite, regression_value, sample_dataset,
)
from .trainers import (
    AveragedModel,
    LocalModel,
    SgmConfig,
    _dataset_features,
    _filter_models,
    _partition_rows,
    _sgm_runs,
    predict,
    resolve_schedule,
)

#: Minimum replication counts (datasets, index draws) for decompose_error.
MIN_DECOMPOSE_REPS = (50, 20)


@dataclass(frozen=True)
class RiskReport:
    """Excess risk of a model, with the method that produced it."""

    excess_risk: float
    method: str
    std_error: float = 0.0


def mode_projection(problem: SpectralProblem, model) -> np.ndarray:
    """Eigenbasis coefficients of a model's prediction function.

    Returns the model's read-only ``modes``: for a local model with
    coefficients alpha at inputs x, mode i carries
    sigma_i * sum_j alpha_j phi_i(x_j); an averaged model carries the mean
    of its locals'. The model must use the problem's own spectral kernel.
    """
    if not isinstance(model, (LocalModel, AveragedModel)):
        raise InvalidParameterError("expected a LocalModel or AveragedModel")
    if model.kernel.key() != spectral_kernel(problem).key():
        raise KernelMismatchError("model kernel does not match this problem")
    return model.modes


def excess_risk_exact(model, problem: SpectralProblem) -> RiskReport:
    """Exact excess risk via the eigenbasis: ||f_hat - f||^2 in L2(rho)."""
    proj = mode_projection(problem, model)
    risk = float(np.sum((proj - problem.target_coeffs) ** 2))
    return RiskReport(excess_risk=risk, method="spectral_exact", std_error=0.0)


def excess_risk_mc(model, problem: SpectralProblem, n_test: int, seed: int) -> RiskReport:
    """Monte Carlo excess risk from fresh uniform test points.

    Works for any kernel (predictions are evaluated pointwise) and reports
    the standard error of the mean squared error.
    """
    if n_test < 100:
        raise InsufficientDataError("need at least 100 test points")
    xs = make_rng(seed).random(n_test)
    errs = (np.asarray(predict(model, xs)) - regression_value(problem, xs)) ** 2
    return RiskReport(excess_risk=float(np.mean(errs)), method="monte_carlo", std_error=_se(errs))


@dataclass(frozen=True)
class DecompositionReport:
    """Bias / sample-variance / gradient-noise split of the excess risk.

    Components are averages over independent datasets; standard errors are
    taken across dataset-level means, so the index-draw replications inside
    each dataset never masquerade as independent observations.
    """

    total: float
    bias: float
    sample_var: float
    comp_var: float
    se_total: float
    se_bias: float
    se_sample_var: float
    se_comp_var: float
    n_data: int
    n_index: int
    n_total: int
    partitions: int

    @property
    def identity_gap(self) -> float:
        """|total - (bias + sample_var + comp_var)|."""
        return abs(self.total - (self.bias + self.sample_var + self.comp_var))

    @property
    def combined_se(self) -> float:
        """Standard error of the identity gap, combining all four terms."""
        return math.sqrt(
            self.se_total**2 + self.se_bias**2 + self.se_sample_var**2 + self.se_comp_var**2
        )

    def identity_ok(self, k: float = 3.0) -> bool:
        return self.identity_gap <= k * self.combined_se


def _se(values: np.ndarray) -> float:
    """Standard error of the mean: std(ddof=1) / sqrt(n)."""
    return float(np.std(values, ddof=1) / math.sqrt(values.size))


def decompose_error(
    problem: SpectralProblem,
    n_total: int,
    config: SgmConfig,
    replications: tuple[int, int] = (100, 50),
) -> DecompositionReport:
    """Split the averaged-SGM excess risk into three orthogonal-ish pieces.

    For each of ``replications[0]`` independent datasets, split into
    ``config.partitions`` blocks, three averaged predictors are formed: the
    pseudo iterate (batch gradient descent on noiseless labels), the batch
    iterate (gradient descent on the observed labels), and
    ``replications[1]`` SGM iterates differing only in their index draws. In eigenbasis coordinates:

    * bias        = ||pseudo - f||^2            (approximation error),
    * sample_var  = ||batch - pseudo||^2        (label noise),
    * comp_var    = E ||sgm - batch||^2         (mini-batch gradient noise),
    * total       = E ||sgm - f||^2.

    The three pieces need not sum to the total exactly; the report carries
    the gap and a combined standard error to judge it against.
    """
    n_data, n_index = replications
    if n_data < MIN_DECOMPOSE_REPS[0] or n_index < MIN_DECOMPOSE_REPS[1]:
        raise InvalidParameterError(
            f"replications must be at least {MIN_DECOMPOSE_REPS} (got {replications})"
        )
    partitions = config.partitions
    kernel = spectral_kernel(problem)
    base = config.base_seed
    target = problem.target_coeffs
    # Batch gradient descent is the Landweber filter of the SGM schedule.
    spec = landweber(resolve_schedule(config.step_schedule, config.iterations), problem.kappa_sq)

    bias_d = np.empty(n_data)
    sv_d = np.empty(n_data)
    cv_d = np.empty(n_data)
    tot_d = np.empty(n_data)

    for d in range(n_data):
        ds = sample_dataset(problem, n_total, derive_seed(base, TAG_DATA, d))
        rows = _partition_rows(n_total, partitions, derive_seed(base, TAG_PARTITION, d))
        feats = _dataset_features(kernel, ds)

        # Per partition, one factorization fits the noiseless and the noisy labels.
        pairs = []
        for s, idx in enumerate(rows):
            block_feats = feats[idx]
            pairs.append(_filter_models(ds.inputs[idx], block_feats,
                                        (block_feats @ target, ds.labels[idx]),
                                        spec, kernel, s))
        pseudo, batch = (AveragedModel(models).modes for models in zip(*pairs))

        bias_d[d] = float(np.sum((pseudo - target) ** 2))
        sv_d[d] = float(np.sum((batch - pseudo) ** 2))

        # Every index replication of every partition runs in one lockstep loop.
        runs = [(s, s, derive_seed(base, TAG_INDEX, d, r))
                for r in range(n_index) for s in range(partitions)]
        _, modes = _sgm_runs(feats, ds.labels, rows, config, kernel, runs)
        sgm = modes.reshape(n_index, partitions, -1).mean(axis=1)
        cv_d[d] = float(np.mean(np.sum((sgm - batch) ** 2, axis=1)))
        tot_d[d] = float(np.mean(np.sum((sgm - target) ** 2, axis=1)))

    return DecompositionReport(
        total=float(np.mean(tot_d)),
        bias=float(np.mean(bias_d)),
        sample_var=float(np.mean(sv_d)),
        comp_var=float(np.mean(cv_d)),
        se_total=_se(tot_d),
        se_bias=_se(bias_d),
        se_sample_var=_se(sv_d),
        se_comp_var=_se(cv_d),
        n_data=n_data,
        n_index=n_index,
        n_total=n_total,
        partitions=partitions,
    )


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of log(risk) against log(N)."""

    slope: float
    intercept: float
    r_squared: float
    n_points: int
    burn_in: int


def fit_rate(points, burn_in: int = 0) -> RateFit:
    """Fit risk ~ C * N^slope through (N, risk) pairs on log-log axes.

    ``burn_in`` drops that many leading points (smallest N first). Needs at
    least three surviving points with positive finite risks, and every N
    finite and at least 1.
    """
    points = list(points)
    if not all(is_finite(n) and n >= 1 for n, _ in points):
        raise InvalidParameterError("sample sizes must be finite and >= 1")
    pts = sorted((int(n), float(r)) for n, r in points)
    if burn_in < 0:
        raise InvalidParameterError("burn_in must be nonnegative")
    pts = pts[burn_in:]
    if len(pts) < 3:
        raise InsufficientDataError("rate fitting needs at least 3 points")
    ns = np.array([p[0] for p in pts], dtype=float)
    risks = np.array([p[1] for p in pts], dtype=float)
    if np.unique(ns).size < len(pts):
        raise InvalidParameterError("sample sizes must be distinct")
    if not np.all(np.isfinite(risks)) or np.any(risks <= 0):
        raise DegenerateInputError("risks must be positive and finite to take logs")

    lx = np.log(ns)
    ly = np.log(risks)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(
        slope=float(slope), intercept=float(intercept), r_squared=r2,
        n_points=len(pts), burn_in=burn_in,
    )


def theory_exponent(zeta: float, gamma: float) -> float:
    """Exponent of the guaranteed excess-risk bound: -2 zeta / max(1, 2 zeta + gamma).

    The bound O(N^exponent) holds for every target in the source class zeta
    and, when 2 zeta + gamma >= 1, matches the minimax lower bound over that
    class. It is not a predicted slope: a target smoother than its
    certified zeta may decay faster.
    """
    check_exponents(zeta, gamma)
    return -2.0 * zeta / max(1.0, 2.0 * zeta + gamma)
