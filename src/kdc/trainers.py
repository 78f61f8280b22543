"""Training algorithms: mini-batch SGM, batch gradient descent, and
spectral-filter estimators, together with the parameter planner that maps
a regime tag to concrete (eta, batch size, iterations) or lambda choices.
A step schedule is a ``Constant``, a float, or a sequence of one step per
iteration.

A model is a weight vector alpha over its training inputs, predicting
x -> sum_j alpha_j K(x, x_j); it carries that predictor's eigenbasis
coefficients sigma * Phi^T alpha as ``modes``. The estimators compute
alpha from the n x dim feature matrix Phi of the spectral kernel
(K = Phi diag(sigma) Phi^T): a sampled dataset's ``features``, or else
evaluated once per call, and hand that Phi to the LocalModel constructor.
Every SGM estimator runs through one lockstep core, ``_sgm_runs``, which
steps all its runs together and settles their alpha once per block of
SETTLE steps, replaying a block step by step only once a coefficient may
have passed DIVERGENCE_LIMIT.
Every spectral filter runs through one path, ``_filter_models``; gradient
descent is on it too, since T steps of it are the Landweber filter G_T of
K/n at lambda = 1/sum(eta). A ``FilterSpec`` carries its own lambda, so no
estimator takes one beside it. The path works on the smaller Gram side of
the scaled features Psi = Phi diag(sqrt(sigma / n)): the dim x dim
covariance, built from Phi^T Phi when n > dim so that no scaled copy of Phi
is made, and else the n x n matrix K/n, which is then no larger than Phi.
Tikhonov fits take one linear solve of that side plus lambda I; the other
filters take one ``eigh`` of it. The Gram route (:func:`kdc.kernels.gram`,
:func:`kdc.filters.apply_filter`) is the reference they are tested against.
Gradient descent on the noiseless labels f(x_j) is ``gm_local`` on them.
Distributed training partitions one dataset uniformly at random, trains
each block independently, and averages the block predictors uniformly; a
block is a row of sample indices (``_partition_rows``), so no second
N x dim matrix is copied.
Steps have one runtime contract, eta <= 1/kappa_sq; every tighter cap (the
1/(1.01 kappa_sq) clamp, the theory cap) is planned, only in ``plan_parameters``.
"""
from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import (
    ConstraintViolationError,
    DivergenceError,
    IndivisibleDataError,
    InvalidParameterError,
    InvalidRegimeError,
    KernelMismatchError,
)
from .filters import (
    CLAMP_SAFETY, FilterSpec, check_step_bound, filter_value, landweber, landweber_recurrence,
)
from .kernels import KernelSpec, kernel_features
from .seeding import make_rng, partition_stream_seed
from .spectral_model import Dataset, SpectralProblem, check_exponents, check_positive

#: Coefficient magnitude beyond which an iterate is declared divergent.
DIVERGENCE_LIMIT = 1e12

#: Iterations of indices an SGM run draws at a time (chunks leave its stream unchanged).
INDEX_CHUNK = 256

#: SGM steps whose coefficient updates are settled at once (blocks never span two chunks).
SETTLE = 64

#: Regime tags accepted by the planner.
SGM_REGIMES = (
    "cor1.1", "cor1.2",
    "cor2.1", "cor2.2", "cor2.3", "cor2.4",
    "cor3.1", "cor3.2", "cor3.3", "cor3.4",
)
SA_REGIMES = ("cor5", "cor6")


@dataclass(frozen=True)
class Constant:
    """Constant step schedule eta_t = eta."""

    eta: float


def resolve_schedule(schedule, iterations: int) -> np.ndarray:
    """Materialize a schedule: a Constant, a float, or a sequence of one step per iteration."""
    if iterations < 1:
        raise InvalidParameterError("iterations must be >= 1")
    if isinstance(schedule, Constant):
        arr = np.full(iterations, float(schedule.eta))
    elif np.isscalar(schedule):
        arr = np.full(iterations, float(schedule))
    else:
        arr = np.asarray(schedule, dtype=float)
    if arr.shape != (iterations,):
        raise InvalidParameterError(
            f"schedule length {arr.shape} does not match iterations={iterations}"
        )
    if not np.all(np.isfinite(arr)) or np.any(arr < 0):
        raise InvalidParameterError("step sizes must be finite and nonnegative")
    return arr


@dataclass(frozen=True)
class SgmConfig:
    """Mini-batch SGM hyperparameters for one distributed run.

    Its steps must keep eta <= 1/kappa_sq; the theory cap is planned, not checked here.
    """

    partitions: int
    batch_size: int
    iterations: int
    step_schedule: Constant | float | tuple[float, ...]
    base_seed: int

    def __post_init__(self) -> None:
        if self.partitions < 1:
            raise InvalidParameterError("partitions must be >= 1")
        if self.batch_size < 1:
            raise InvalidParameterError("batch_size must be >= 1")
        resolve_schedule(self.step_schedule, self.iterations)


@dataclass(frozen=True, eq=False)
class LocalModel:
    """Predictor trained on one partition: coefficients alpha at its inputs.

    ``modes`` is computed once from them: the eigenbasis coefficients
    v = sigma * Phi^T alpha of the prediction function, read-only. A trainer
    that already holds Phi = kernel_features(kernel, inputs) hands it over as
    the init-only ``_features``, whose shape is checked; otherwise Phi is
    evaluated. Raises DomainError for inputs outside [0, 1].
    """

    inputs: np.ndarray
    coeffs: np.ndarray
    partition_index: int
    kernel: KernelSpec
    _features: InitVar[np.ndarray | None] = None
    modes: np.ndarray = field(init=False)

    def __post_init__(self, features: np.ndarray | None) -> None:
        x = np.asarray(self.inputs, dtype=float)
        a = np.asarray(self.coeffs, dtype=float)
        if x.ndim != 1 or a.shape != x.shape:
            raise InvalidParameterError("inputs and coeffs must be matching 1-D arrays")
        if not np.all(np.isfinite(a)):
            raise DivergenceError("model coefficients are not finite")
        if features is None:
            features = kernel_features(self.kernel, x)
        elif features.shape != (x.size, self.kernel.problem.dim):
            raise InvalidParameterError(
                f"features of shape {features.shape} do not match {x.size} inputs"
            )
        v = self.kernel.problem.eigenvalues * (features.T @ a)
        for name, arr in (("inputs", x), ("coeffs", a), ("modes", v)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True, eq=False)
class AveragedModel:
    """Uniform average of per-partition predictors; ``modes`` is their mean.

    Raises KernelMismatchError unless every local model has the same kernel.
    """

    locals: tuple[LocalModel, ...]
    modes: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if len(self.locals) == 0:
            raise InvalidParameterError("averaged model needs at least one local model")
        key = self.locals[0].kernel.key()
        if any(m.kernel.key() != key for m in self.locals[1:]):
            raise KernelMismatchError("local models were trained with different kernels")
        v = sum(m.modes for m in self.locals) / len(self.locals)
        v.setflags(write=False)
        object.__setattr__(self, "modes", v)

    @property
    def kernel(self) -> KernelSpec:
        return self.locals[0].kernel


def average_models(models: Sequence[LocalModel]) -> AveragedModel:
    """Average local predictors uniformly; all must share one kernel."""
    return AveragedModel(locals=tuple(models))


def predict(model, xs):
    """Evaluate a LocalModel or AveragedModel at points xs from its modes."""
    vals = kernel_features(model.kernel, xs) @ model.modes
    if np.isscalar(xs) or np.ndim(xs) == 0:
        return float(vals[0])
    return vals


def _partition_rows(n_total: int, partitions: int, seed: int) -> np.ndarray:
    """Rows of make_rng(seed).permutation(n_total) as ``partitions`` equal blocks, (m, n).

    Raises IndivisibleDataError unless partitions divides n_total.
    """
    if partitions < 1:
        raise InvalidParameterError("partitions must be >= 1")
    if n_total % partitions != 0:
        raise IndivisibleDataError(
            f"{partitions} partitions do not divide {n_total} samples"
        )
    return make_rng(seed).permutation(n_total).reshape(partitions, -1)


def partition_data(dataset: Dataset, partitions: int, seed: int) -> list[Dataset]:
    """Split a dataset into ``partitions`` equal blocks, uniformly at random.

    The blocks of ``_partition_rows``, each with its rows of ``features``.
    Raises IndivisibleDataError unless partitions divides len(dataset).
    """
    return [
        replace(dataset, inputs=dataset.inputs[idx], labels=dataset.labels[idx],
                features=None if dataset.features is None else dataset.features[idx])
        for idx in _partition_rows(len(dataset), partitions, seed)
    ]


def _dataset_features(kernel: KernelSpec, dataset: Dataset) -> np.ndarray:
    """Phi at the dataset's inputs: its ``features`` when they are the kernel's, else evaluated."""
    feats = dataset.features
    if (feats is not None and feats.shape == (len(dataset), kernel.problem.dim)
            and dataset.problem_id == kernel.problem.problem_id):
        return feats
    return kernel_features(kernel, dataset.inputs)


def theory_step_cap(kappa_sq: float, iterations: int) -> float:
    """Step cap 1/(4 kappa_sq max(1, ln T)) of the SGM rates (Lin & Cevher, 1801.07226)."""
    check_positive("kappa_sq", kappa_sq)
    return 1.0 / (4.0 * kappa_sq * max(1.0, math.log(iterations)))


def _mode_filter(kernel: KernelSpec, features: np.ndarray, y: np.ndarray,
                 spec: FilterSpec) -> np.ndarray:
    """Coefficients alpha = G(K/n) y / n for the filter G of ``spec``, at its level.

    ``features`` is Phi at the n inputs and ``y`` holds one label vector,
    shape (n,), or c of them, shape (n, c). With Psi = Phi diag(sqrt(sigma))
    / sqrt(n), K/n = Psi Psi^T; the smaller of C = Psi^T Psi (dim x dim, when
    n > dim) and Psi Psi^T (n x n) carries the fit. For n > dim, C is built
    as (Phi^T Phi) scaled by the outer product of sqrt(sigma / n), and Psi is
    applied as Phi (sqrt(sigma / n) * z), so no n x dim array is formed.

    Tikhonov takes one ``solve`` of that side plus lambda I:
    alpha = (K/n + lambda I)^-1 y / n for n <= dim, and for n > dim

        alpha = (y - Psi (C + lambda I)^-1 Psi^T y) / (lambda n).

    It does so only when trace(K/n) <= kappa_sq; the trace bounds every
    eigenvalue, so there the ``eigh`` route could not raise. Every other
    case, and every other filter, takes one ``eigh``. For n > dim, K/n
    vanishes off range(Psi), where G takes the value G(0), so with
    C = W diag(s^2) W^T

        alpha = (G(0) y + Psi W diag((G(s^2) - G(0)) / s^2) W^T Psi^T y) / n.

    Eigenvalues are clamped at 0, and exact zeros, whose directions Psi
    annihilates, drop out of the ratio; ``filter_value`` raises DomainError
    for one above kappa_sq. Costs O(n min(n, dim)^2).
    """
    n = y.shape[0]
    cols = y.reshape(n, -1)
    scale = np.sqrt(kernel.problem.eigenvalues / n)
    primal = n > scale.size
    if primal:
        side = features.T @ features
        side *= np.outer(scale, scale)
        rhs = scale[:, None] * (features.T @ cols)
    else:
        psi = features * scale
        side = psi @ psi.T
        rhs = cols
    if spec.kind == "tikhonov" and np.trace(side) <= spec.kappa_sq:
        side.flat[::len(side) + 1] += spec.lam
        z = np.linalg.solve(side, rhs)
        alpha = (cols - features @ (scale[:, None] * z)) / spec.lam if primal else z
    else:
        s2, w = np.linalg.eigh(side)
        s2 = np.maximum(s2, 0.0)
        if primal:
            gv = filter_value(spec, np.concatenate(([0.0], s2)))
            ratio = np.divide(gv[1:] - gv[0], s2, out=np.zeros_like(s2), where=s2 > 0.0)
            z = w @ (ratio[:, None] * (w.T @ rhs))
            alpha = gv[0] * cols + features @ (scale[:, None] * z)
        else:
            alpha = w @ (filter_value(spec, s2)[:, None] * (w.T @ cols))
    return (alpha / n).reshape(y.shape)


def _sgm_runs(feats: np.ndarray, labels: np.ndarray, rows: np.ndarray, config: SgmConfig,
              kernel: KernelSpec, runs):
    """Advance independent mini-batch SGM runs in lockstep.

    Run (block, partition_index, seed) trains on the samples ``rows[block]``
    of Phi ``feats`` and ``labels`` (``rows`` has shape (m, n)) using the
    index stream partition_stream_seed(seed, partition_index), drawn
    INDEX_CHUNK iterations at a time. Returns the coefficients (R, n) and
    the mode vectors (R, dim). A diverged run stops moving; the error raised
    is the first run's, in run order. Rows outside ``feats`` or labels of
    another length raise InvalidParameterError.

    Until a run diverges, no step reads alpha, so the loop settles it once
    per block of SETTLE steps. Each block looks up its sample rows and
    labels at once; a step gathers its batch rows from ``feats`` into a
    buffer made before the loop, forms its predictions, overwrites its
    labels with its step in the block's record, and updates the modes. At
    the block's end the record's count times its largest |step| is added
    to a running bound on every |alpha|. While the bound stays within
    DIVERGENCE_LIMIT / 2, no coefficient can have passed the limit, and one
    ``np.subtract.at`` of the whole record settles alpha in the order of the
    per-step calls. Otherwise, or if the bound is not finite, the modes go
    back to the block's start and the block is replayed in exact mode,
    which settles and checks alpha after every step and zeroes diverged
    runs; the rest of the call stays in exact mode. Both modes keep every
    result bit-identical to a step-by-step loop. The speculative pass
    ignores overflow and invalid operations, which arise only in a block
    that is then replayed; the replay runs under the caller's error state,
    so it raises or warns as a step-by-step loop would.
    """
    n = rows.shape[1]
    if config.batch_size > n:
        raise InvalidParameterError(f"batch_size {config.batch_size} exceeds partition size {n}")
    if np.shape(labels) != (len(feats),) or rows.min() < 0 or rows.max() >= len(feats):
        raise InvalidParameterError(f"rows and labels must index the {len(feats)} feature rows")
    etas = resolve_schedule(config.step_schedule, config.iterations)
    ksq = kernel.problem.kappa_sq
    check_step_bound(etas, ksq)

    rngs = [make_rng(partition_stream_seed(seed, s)) for _, s, seed in runs]
    # Sample row of each run's local index, laid out like alpha.
    run_rows = rows[[i for i, _, _ in runs]].ravel()
    own = n * np.arange(len(runs))[:, None]
    sigma = kernel.problem.eigenvalues
    steps = etas / float(config.batch_size)

    alpha = np.zeros(len(runs) * n)
    v = np.zeros((len(runs), sigma.size))
    v_start = np.empty_like(v)
    batch = np.empty((len(runs), config.batch_size, sigma.size))
    pred = np.empty((len(runs), config.batch_size))
    update = np.empty_like(v)
    touched = np.empty_like(pred)
    draws = np.empty((min(INDEX_CHUNK, config.iterations),) + pred.shape, dtype=np.int64)
    block_rows = np.empty((min(SETTLE, config.iterations),) + pred.shape, dtype=np.int64)
    # A block's labels, each overwritten by its step.
    record = np.empty(block_rows.shape)
    diverged: dict[int, int] = {}

    def run_block(t0, own_block, sample_block, step_block, exact):
        for t, own_rows, sample_rows, step in zip(range(t0, t0 + len(step_block)), own_block,
                                                  sample_block, step_block):
            # mode="clip" writes straight into the buffer; every index is in range.
            np.take(feats, sample_rows, axis=0, out=batch, mode="clip")
            np.matmul(batch, v[:, :, None], out=pred[:, :, None])
            np.subtract(pred, step, out=step)  # the label becomes the step
            step *= steps[t]
            if exact:
                if diverged:
                    step[list(diverged)] = 0.0
                np.subtract.at(alpha, own_rows, step)
            np.matmul(step[:, None, :], batch, out=update[:, None, :])
            np.subtract(v, np.multiply(sigma, update, out=update), out=v)
            if not exact:
                continue
            # Written so that a NaN or an infinity fails the comparison too.
            np.abs(np.take(alpha, own_rows, out=touched, mode="clip"), out=touched)
            if not touched.max() <= DIVERGENCE_LIMIT:
                for r in np.flatnonzero(~(touched.max(axis=1) <= DIVERGENCE_LIMIT)):
                    diverged[r] = t + 1
                    v[r] = alpha[r * n:(r + 1) * n] = 0.0

    # Bounds every |alpha| up to the first exact block; it only grows, so exact
    # mode lasts for the rest of the call.
    bound = 0.0
    for t0 in range(0, config.iterations, INDEX_CHUNK):
        k = min(INDEX_CHUNK, config.iterations - t0)
        for r, rng in enumerate(rngs):
            draws[:k, r] = rng.integers(0, n, (k, config.batch_size))
        draws[:k] += own
        for b0 in range(0, k, SETTLE):
            own_block = draws[b0:min(b0 + SETTLE, k)]
            size = len(own_block)
            sample_block = np.take(run_rows, own_block, out=block_rows[:size], mode="clip")
            step_block = np.take(labels, sample_block, out=record[:size], mode="clip")
            if bound <= DIVERGENCE_LIMIT / 2:
                np.copyto(v_start, v)
                with np.errstate(over="ignore", invalid="ignore"):
                    run_block(t0 + b0, own_block, sample_block, step_block, False)
                    bound += step_block.size * np.maximum(step_block.max(), -step_block.min())
                if bound <= DIVERGENCE_LIMIT / 2:
                    np.subtract.at(alpha, own_block.ravel(), step_block.ravel())
                    continue
                np.copyto(v, v_start)
                np.take(labels, sample_block, out=step_block, mode="clip")
            run_block(t0 + b0, own_block, sample_block, step_block, True)
    if diverged:
        r = min(diverged)
        raise DivergenceError(f"SGM diverged at iteration {diverged[r]} on partition {runs[r][1]}")
    return alpha.reshape(len(runs), n), v


def sgm_local(
    subset: Dataset,
    config: SgmConfig,
    kernel: KernelSpec,
    partition_index: int,
) -> LocalModel:
    """Mini-batch SGM on one partition, sampling with replacement.

    Per iteration t, a batch of ``batch_size`` indices is drawn i.i.d.
    uniformly from the partition; the coefficient update is

        alpha[j] -= (eta_t / b) * sum over batch slots with index j of
                    (prediction(x_j) - y_j),

    all residuals evaluated at the iteration-start coefficients. The
    predictions come from the mode vector v = sigma * Phi^T alpha, updated
    alongside alpha, so a step costs O(batch_size * dim). Index draws come
    from a dedicated stream seeded by (base_seed, partition_index) so
    partitions and replications are independent and reproducible. Raises
    DivergenceError if coefficients blow past DIVERGENCE_LIMIT or go non-finite.
    """
    feats = _dataset_features(kernel, subset)
    alpha, _ = _sgm_runs(feats, subset.labels, np.arange(len(subset))[None], config, kernel,
                         [(0, partition_index, config.base_seed)])
    return LocalModel(subset.inputs, alpha[0], partition_index, kernel, _features=feats)


def _filter_models(inputs: np.ndarray, feats: np.ndarray, label_columns,
                   filter_spec: FilterSpec, kernel: KernelSpec,
                   partition_index: int) -> list[LocalModel]:
    """The filter estimator on one partition, one model per label column.

    ``feats`` is Phi at the partition's ``inputs``; every column shares the
    one factorization of :func:`_mode_filter`.
    """
    alphas = _mode_filter(kernel, feats, np.column_stack(label_columns), filter_spec)
    return [LocalModel(inputs, a, partition_index, kernel, _features=feats) for a in alphas.T]


def gm_local(
    subset: Dataset,
    step_schedule,
    iterations: int,
    kernel: KernelSpec,
    partition_index: int = 0,
) -> LocalModel:
    """Full-batch gradient descent on one partition.

    This is the batch limit of sgm_local. T steps of it are the Landweber
    filter G_T of K/n, so it runs as :func:`sa_local` with that filter; the
    schedule must hold nonnegative steps of at most 1/kappa_sq with a
    positive sum.
    """
    spec = landweber(resolve_schedule(step_schedule, iterations), kernel.problem.kappa_sq)
    return sa_local(subset, spec, kernel, partition_index)


def population_bias(problem: SpectralProblem, step_schedule, iterations: int) -> float:
    """Squared norm of the population gradient-descent bias after T steps.

    The population iterate is a_i sigma_i G_T(sigma_i), G_T the schedule's Landweber filter.
    """
    g = landweber_recurrence(resolve_schedule(step_schedule, iterations), problem.eigenvalues)
    resid = problem.eigenvalues * g - 1.0
    return float(np.sum((problem.target_coeffs * resid) ** 2))


def sa_local(
    subset: Dataset,
    filter_spec: FilterSpec,
    kernel: KernelSpec,
    partition_index: int = 0,
) -> LocalModel:
    """Spectral-algorithm estimator on one partition.

    Applies the filter, at its own level lambda, to the scaled kernel matrix
    K/n and the label vector, which gives the same coefficients as
    :func:`kdc.filters.apply_filter`.
    """
    return _filter_models(subset.inputs, _dataset_features(kernel, subset), [subset.labels],
                          filter_spec, kernel, partition_index)[0]


def distributed_sgm(
    dataset: Dataset,
    config: SgmConfig,
    kernel: KernelSpec,
    partition_seed: int,
) -> AveragedModel:
    """Partition, train SGM on every block in lockstep, and average the predictors."""
    rows = _partition_rows(len(dataset), config.partitions, partition_seed)
    feats = _dataset_features(kernel, dataset)
    alphas, _ = _sgm_runs(feats, dataset.labels, rows, config, kernel,
                          [(s, s, config.base_seed) for s in range(config.partitions)])
    return average_models([
        LocalModel(dataset.inputs[idx], a, s, kernel, _features=feats[idx])
        for s, (idx, a) in enumerate(zip(rows, alphas))
    ])


def distributed_sa(
    dataset: Dataset,
    filter_spec: FilterSpec,
    kernel: KernelSpec,
    partitions: int,
    partition_seed: int,
) -> AveragedModel:
    """Partition, run the spectral algorithm on each block, and average."""
    rows = _partition_rows(len(dataset), partitions, partition_seed)
    feats = _dataset_features(kernel, dataset)
    return average_models([
        _filter_models(dataset.inputs[idx], feats[idx], [dataset.labels[idx]], filter_spec,
                       kernel, s)[0]
        for s, idx in enumerate(rows)
    ])


@dataclass(frozen=True)
class TrainPlan:
    """Planner output: concrete hyperparameters for one (regime, N, m)."""

    regime: str
    algorithm: str
    n_total: int
    partitions: int
    n_local: int
    batch_size: int | None
    iterations: int | None
    eta: float | None
    eta_raw: float | None
    lam: float | None
    scale: float
    zeta: float
    gamma: float
    clamped: bool
    partition_warning: bool

    def to_config(self, base_seed: int) -> SgmConfig:
        """SGM configuration realizing this plan."""
        if self.algorithm != "sgm":
            raise InvalidParameterError("only SGM plans convert to SgmConfig")
        return SgmConfig(
            partitions=self.partitions,
            batch_size=self.batch_size,
            iterations=self.iterations,
            step_schedule=Constant(self.eta),
            base_seed=base_seed,
        )


def plan_parameters(
    regime: str,
    n_total: int,
    partitions: int,
    zeta: float,
    gamma: float,
    scale: float = 1.0,
    *,
    kappa_sq: float | None = None,
    theory_compliant: bool = False,
) -> TrainPlan:
    """Map a regime tag to concrete hyperparameters.

    SGM regimes fix (eta, batch size, iterations); SA regimes fix lambda.
    The tags are the corollaries of Lin & Cevher (arXiv 1801.07226): four SGM
    step shapes and one lambda rule in N, m, n = N/m, zeta and s = 2*zeta +
    gamma. ``cor2.k`` is shape k and requires s > 1; ``cor1.1`` and
    ``cor1.2`` are shapes 3 and 4 at (zeta, s) = (1/2, 2), the
    capacity-independent worst case; ``cor3.k`` (Lin & Rosasco, JMLR 2017)
    is shape k at m = 1 with s replaced by max(1, s). ``cor5`` sets lambda =
    scale * N^(-1/s); ``cor6`` is ``cor5`` at m = 1 with max(1, s) for s.
    ``scale`` (positive and finite) multiplies the step size or regularization
    level. When ``kappa_sq`` is given, step sizes are clamped to
    1/(1.01 kappa_sq) so the SGM step-size contract always holds; with
    ``theory_compliant`` the tighter cap 1/(4 * 1.01 * kappa_sq * max(1, ln T))
    applies as well, here and nowhere else: a plan's SgmConfig holds only eta.
    Iteration counts round up; batch sizes round to the nearest integer in
    [1, n]. Raises InvalidRegimeError for unknown tags and
    ConstraintViolationError when a regime's side condition fails.
    """
    if n_total < 2:
        raise InvalidParameterError("n_total must be >= 2")
    if partitions < 1 or partitions > n_total:
        raise InvalidParameterError("partitions must lie in [1, n_total]")
    check_exponents(zeta, gamma)
    check_positive("scale", scale)
    if kappa_sq is not None:
        check_positive("kappa_sq", kappa_sq)
    elif theory_compliant:
        raise InvalidParameterError("theory_compliant planning needs kappa_sq")
    if regime not in SGM_REGIMES + SA_REGIMES:
        raise InvalidRegimeError(
            f"unknown regime {regime!r}; expected one of {SGM_REGIMES + SA_REGIMES}"
        )

    big_n = float(n_total)
    m = partitions
    n = big_n / m
    n_local = n_total // m
    log_n = math.log(big_n)
    exponent_sum = 2.0 * zeta + gamma
    # Each tag is a step shape (none for the lambda rule) at an exponent pair (z, s).
    corollary, _, variant = regime.partition(".")
    shape = int(variant) if variant else None
    z = zeta
    s = exponent_sum
    if corollary == "cor1":
        shape += 2
        z = 0.5
        s = 2.0
    elif corollary == "cor2" and s <= 1.0:
        raise ConstraintViolationError(
            f"regime {regime} requires 2*zeta + gamma > 1 (got {exponent_sum:.3g})"
        )
    elif corollary in ("cor3", "cor6"):
        if m != 1:
            raise ConstraintViolationError(f"regime {regime} requires partitions == 1")
        s = max(1.0, s)

    algorithm = "sa" if shape is None else "sgm"
    lam: float | None = None
    eta_raw: float | None = None
    batch: int | None = None
    iters: int | None = None
    clamped = False
    if shape is None:
        lam = scale * big_n ** (-1.0 / s)
    else:
        # The step size, batch size b and iteration count t before rounding.
        root = big_n ** (1.0 / s)
        if shape == 1:
            eta_raw = scale / n
            b = 1.0
            t = root * n
        elif shape == 2:
            eta_raw = scale / math.sqrt(n)
            b = math.sqrt(n)
            t = root * math.sqrt(n)
        elif shape == 3:
            eta_raw = scale * m / big_n ** (2.0 * z / s)
            b = 1.0
            t = big_n ** ((2.0 * z + 1.0) / s) / m
        else:
            eta_raw = scale / log_n
            b = big_n ** (2.0 * z / s) / m
            t = root * log_n
        batch = min(max(1, round(b)), n_local)
        iters = max(1, math.ceil(t * (1.0 - 1e-12)))
    eta = eta_raw
    if shape is not None and kappa_sq is not None:
        cap = 1.0 / (CLAMP_SAFETY * kappa_sq)
        if theory_compliant:
            cap = min(cap, theory_step_cap(CLAMP_SAFETY * kappa_sq, iters))
        clamped = eta_raw > cap
        eta = min(eta_raw, cap)

    # m beyond this threshold voids the averaging guarantee (bias dominates).
    threshold = big_n ** ((exponent_sum - 1.0) / exponent_sum) if exponent_sum > 1.0 else 1.0
    partition_warning = m > threshold

    return TrainPlan(
        regime=regime,
        algorithm=algorithm,
        n_total=n_total,
        partitions=m,
        n_local=n_local,
        batch_size=batch,
        iterations=iters,
        eta=eta,
        eta_raw=eta_raw,
        lam=lam,
        scale=scale,
        zeta=zeta,
        gamma=gamma,
        clamped=clamped,
        partition_warning=partition_warning,
    )


@dataclass(frozen=True)
class StepConditionReport:
    """Result of the summability check on a step schedule."""

    passed: bool
    worst_ratio: float
    worst_t: int
    threshold: float
    iterations: int


def check_step_condition(step_schedule, iterations: int, kappa_sq: float) -> StepConditionReport:
    """Check the variance-control condition on a step schedule.

    For every t >= 2 the weighted window sum

        S_t = (1/eta_t) * sum_{k=1..t-1} [1/(k(k+1))] * sum_{i=t-k..t-1} eta_i^2

    must stay below 1/(4 kappa_sq). Reports the worst ratio S_t / threshold
    (0 when T == 1, which is vacuously fine). For a constant schedule S_t
    reduces to eta * (H_t - 1), with H_t the t-th harmonic number.
    """
    check_positive("kappa_sq", kappa_sq)
    etas = resolve_schedule(step_schedule, iterations)
    if np.any(etas <= 0):
        raise InvalidParameterError("step condition is defined for positive steps")
    threshold = 1.0 / (4.0 * kappa_sq)
    sq = etas**2
    t = np.arange(1, iterations + 1)
    # The window weights telescope, sum_{k=t-i..t-1} 1/(k(k+1)) = 1/(t-i) - 1/t, so
    # eta_t S_t = sum_{i<t} eta_i^2 / (t-i) - (1/t) sum_{i<t} eta_i^2; t = 1 has no window.
    eta_s = np.convolve(sq, 1.0 / t)[:iterations - 1] - np.cumsum(sq)[:-1] / t[1:]
    ratios = np.concatenate(([0.0], eta_s)) / etas / threshold
    worst = int(np.argmax(ratios))
    return StepConditionReport(
        passed=bool(ratios[worst] <= 1.0 + 1e-12),
        worst_ratio=float(ratios[worst]),
        worst_t=worst + 1,
        threshold=threshold,
        iterations=iterations,
    )
