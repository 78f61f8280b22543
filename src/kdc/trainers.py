"""Training algorithms: mini-batch SGM, batch gradient descent, and
spectral-filter estimators, together with the parameter planner that maps
a regime tag to concrete (eta, batch size, iterations) or lambda choices.
A step schedule is a float, a sequence of one step per iteration, or a
``Constant``; a spectral filter is a ``FilterSpec``.

A fit, local or averaged, is a ``Model``: its mode vector, the coefficients
of its predictor in the eigenbasis of the spectral kernel
(K = Phi diag(sigma) Phi^T, Phi the n x dim feature matrix: a sampled
dataset's ``features``, or else evaluated once per call). Weights over the
inputs appear only inside a filter fit with n <= dim, on its way to the modes.
Every SGM estimator runs through one lockstep core, ``_sgm_runs``, whose
state is the runs' mode vectors alone. It steps all its runs together in
one loop over blocks of SETTLE steps: a block draws its indices, steps and
checks its record of steps for a divergence (a step past DIVERGENCE_LIMIT).
One run steps on 2-D arrays, several on stacks of them. The loop ends with
the block in which run 0 diverges, since the error it raises is then fixed.
Every spectral filter runs through one path, ``_mode_filter``, which
returns modes; gradient descent is on it too, since T steps of it are the
Landweber filter G_T of K/n at lambda = 1/sum(eta). A ``FilterSpec``
carries its own lambda, so no estimator takes one beside it. The path works
on the smaller Gram side of the scaled features
Psi = Phi diag(sqrt(sigma / n)): the dim x dim covariance when n > dim,
built from the 2 dim + 1 sine moments of Phi in O(n dim)
(:func:`kdc.spectral_model.basis_covariance`), from which the modes follow
with no n x dim product, and else the n x n matrix K/n, which is then no
larger than Phi.
Tikhonov fits take one linear solve of that side plus lambda I; the other
filters take one ``eigh`` of it. The Gram route (:func:`kdc.kernels.gram`,
:func:`kdc.filters.apply_filter`) is the reference they are tested against.
Gradient descent on the noiseless labels f(x_j) is ``gm_local`` on them.
Distributed training partitions one dataset uniformly at random, trains
each block independently, and averages the blocks' modes uniformly; the
layout is ``_blocks``: a block is a row of sample indices, so no second
N x dim matrix is copied, and one partition's filter fit uses the sample in place.
Steps have one runtime contract, eta <= 1/kappa_sq; every tighter cap (the
1/(1.01 kappa_sq) clamp, the theory cap) is planned, only in ``plan_parameters``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
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
    CLAMP_SAFETY, FilterSpec, check_step_bound, filter_value, landweber, step_array,
)
from .kernels import KernelSpec, kernel_features
from .seeding import check_integer, make_rng, partition_stream_seed
from .spectral_model import (
    Dataset, basis_covariance, check_exponents, check_positive, check_sample_size,
    reduce_through_init,
)

#: SGM step magnitude (eta_t / b)|prediction - y| beyond which a run is declared divergent.
DIVERGENCE_LIMIT = 1e12

#: SGM steps per block: a block draws its indices (in blocks, a run's stream is unchanged),
#: steps and checks its record of steps for divergence at once.
SETTLE = 64

#: Most iterations a schedule may have: 2**27 steps are a 1 GiB schedule and minutes of
#: stepping, so a count numpy could not allocate is a parameter error, planned or given.
MAX_ITERATIONS = 2**27

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
    check_integer("iterations", iterations)
    if iterations < 1:
        raise InvalidParameterError("iterations must be >= 1")
    if iterations > MAX_ITERATIONS:
        raise InvalidParameterError(f"iterations must be <= {MAX_ITERATIONS}, got {iterations}")
    if isinstance(schedule, Constant):
        schedule = schedule.eta
    arr = step_array(schedule)
    if arr.ndim == 0:
        arr = np.full(iterations, arr)
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
        for name in ("partitions", "batch_size"):
            check_integer(name, getattr(self, name))
            if getattr(self, name) < 1:
                raise InvalidParameterError(f"{name} must be >= 1")
        check_integer("base_seed", self.base_seed)
        resolve_schedule(self.step_schedule, self.iterations)


@dataclass(frozen=True, eq=False)
class Model:
    """A fitted predictor, local or averaged, given by its mode vector.

    ``modes``, of shape (dim,), are the eigenbasis coefficients of the
    prediction function, kept as a read-only float copy. Modes of another
    shape raise InvalidParameterError, non-finite ones DivergenceError.
    """

    modes: np.ndarray
    kernel: KernelSpec

    def __post_init__(self) -> None:
        v = np.array(self.modes, dtype=float)
        if v.shape != (self.kernel.problem.dim,):
            raise InvalidParameterError(
                f"modes of shape {v.shape} do not match dim {self.kernel.problem.dim}")
        if not np.all(np.isfinite(v)):
            raise DivergenceError("model modes are not finite")
        v.setflags(write=False)
        object.__setattr__(self, "modes", v)

    __reduce__ = reduce_through_init


def average_models(models: Sequence[Model]) -> Model:
    """Average models uniformly, the modes in list order; all must share one kernel."""
    if len(models) == 0:
        raise InvalidParameterError("averaged model needs at least one local model")
    key = models[0].kernel.key()
    if any(m.kernel.key() != key for m in models[1:]):
        raise KernelMismatchError("local models were trained with different kernels")
    return Model(sum(m.modes for m in models) / len(models), models[0].kernel)


def predict(model: Model, xs):
    """Evaluate a model at points xs from its modes."""
    vals = kernel_features(model.kernel, xs) @ model.modes
    if np.isscalar(xs) or np.ndim(xs) == 0:
        return float(vals[0])
    return vals


def _partition_rows(n_total: int, partitions: int, seed: int) -> np.ndarray:
    """Rows of make_rng(seed).permutation(n_total) as ``partitions`` equal blocks, (m, n).

    Raises IndivisibleDataError unless partitions divides n_total.
    """
    check_integer("partitions", partitions)
    if partitions < 1:
        raise InvalidParameterError("partitions must be >= 1")
    if n_total % partitions != 0:
        raise IndivisibleDataError(
            f"{partitions} partitions do not divide {n_total} samples"
        )
    return make_rng(seed).permutation(n_total).reshape(partitions, -1)


def partition_data(dataset: Dataset, partitions: int, seed: int) -> list[Dataset]:
    """Split a dataset into ``partitions`` equal blocks, uniformly at random.

    The blocks of ``_partition_rows``, each ``Dataset(inputs[idx], labels[idx])``
    and so without ``features``: a fit of a block evaluates its Phi.
    Raises IndivisibleDataError unless partitions divides len(dataset).
    """
    return [Dataset(dataset.inputs[idx], dataset.labels[idx])
            for idx in _partition_rows(len(dataset), partitions, seed)]


def _dataset_features(kernel: KernelSpec, dataset: Dataset) -> np.ndarray:
    """Phi at the dataset's inputs: its ``features`` when set and dim wide, else evaluated.

    Phi depends only on dim and the inputs, and only :func:`sample_dataset` sets
    ``features``, to basis_matrix(dim, inputs) of that dataset's own inputs.
    """
    feats = dataset.features
    if feats is not None and feats.shape[1] == kernel.problem.dim:
        return feats
    return kernel_features(kernel, dataset.inputs)


def theory_step_cap(kappa_sq: float, iterations: int) -> float:
    """Step cap 1/(4 kappa_sq max(1, ln T)) of the SGM rates (Lin & Cevher, 1801.07226)."""
    check_positive("kappa_sq", kappa_sq)
    check_integer("iterations", iterations)
    if iterations < 1:
        raise InvalidParameterError("iterations must be >= 1")
    return 1.0 / (4.0 * kappa_sq * max(1.0, math.log(iterations)))


def _mode_filter(kernel: KernelSpec, features: np.ndarray, y: np.ndarray,
                 spec: FilterSpec) -> np.ndarray:
    """Modes sigma * Phi^T G(K/n) y / n of the fit by the filter G of ``spec``, at its level.

    ``features`` is Phi at the n inputs and ``y`` holds one label vector,
    shape (n,), or c of them, shape (n, c); the modes have shape (dim,) or
    (c, dim). With s = sqrt(sigma / n) and Psi = Phi diag(s), K/n = Psi Psi^T;
    the smaller of C = Psi^T Psi (dim x dim, when n > dim) and Psi Psi^T
    (n x n) carries the fit. For n > dim, Psi^T G(Psi Psi^T) = G(C) Psi^T,
    so the modes come off C alone as s * z, z = G(C) r with r = s * Phi^T y;
    C is built as Phi^T Phi from its 2 dim + 1 sine moments
    (:func:`basis_covariance`, O(n dim)) scaled by the outer product of s,
    so no n x dim array is formed. For n <= dim, z = G(K/n) y gives the
    coefficients z / n at the inputs, and the modes are sigma * Phi^T z / n.

    Tikhonov, G(u) = 1/(u + lambda), takes z from one ``solve`` of that side
    plus lambda I. It does so only when the side's trace is at most
    kappa_sq; the trace bounds every eigenvalue, so there the ``eigh`` route
    could not raise. Every other case, and every other filter, takes one
    ``eigh`` of the side, W diag(s^2) W^T, and z = W G(s^2) W^T r (or y).
    Eigenvalues are clamped at 0, and ``filter_value`` raises DomainError
    for one above kappa_sq. Costs O(n dim + dim^3) for n > dim and
    O(n^2 dim + n^3) otherwise, each plus O(n dim c) for the labels.
    """
    n = y.shape[0]
    cols = y.reshape(n, -1)
    scale = np.sqrt(kernel.problem.eigenvalues / n)
    primal = n > scale.size
    if primal:
        side = basis_covariance(features)
        side *= np.outer(scale, scale)
        rhs = scale[:, None] * (features.T @ cols)
    else:
        psi = features * scale
        side = psi @ psi.T
        rhs = cols
    if spec.kind == "tikhonov" and np.trace(side) <= spec.kappa_sq:
        side.flat[::len(side) + 1] += spec.lam
        z = np.linalg.solve(side, rhs)
    else:
        s2, w = np.linalg.eigh(side)
        z = w @ (filter_value(spec, np.maximum(s2, 0.0))[:, None] * (w.T @ rhs))
    if primal:
        modes = (scale[:, None] * z).T
    else:
        modes = kernel.problem.eigenvalues * ((z / n).T @ features)
    return modes if y.ndim > 1 else modes[0]


def _sgm_runs(feats: np.ndarray, labels: np.ndarray, rows: np.ndarray, config: SgmConfig,
              kernel: KernelSpec, runs) -> np.ndarray:
    """Advance independent mini-batch SGM runs in lockstep; returns their modes (R, dim).

    Run (block, partition_index, seed) trains on the samples ``rows[block]``
    of Phi ``feats`` and ``labels`` (``rows`` has shape (m, n)) using the
    index stream partition_stream_seed(seed, partition_index). Its state is
    the mode vector v of its predictor; a step with batch rows B and labels
    y_B moves it by -sigma * B^T (eta_t / b)(B v - y_B). A run diverges at
    the first iteration at which one of its steps (eta_t / b)(prediction - y)
    has magnitude above DIVERGENCE_LIMIT or is not finite; the error raised
    is the first diverged run's, in run order. Rows outside ``feats`` or
    labels of another length raise InvalidParameterError.

    The loop runs in blocks of SETTLE steps. A block draws each run's
    indices and looks up their sample rows and labels, and steps: a step
    gathers its batch rows from ``feats`` into a buffer made before the
    loop, forms its predictions, overwrites its labels with its step in the
    block's record, and updates the modes. The buffers are shaped
    lead + (b, dim): one run (lead = ()) steps on 2-D arrays with
    ``np.dot``, several (lead = (R,)) on stacks with ``np.matmul``, and
    either gives a run the same bits. If the block's largest |step| fails
    the limit, each bad run's first bad iteration is read from the record.
    Once run 0 has diverged the error raised is fixed, so the loop stops
    after that block; a later run that diverges steps on, as the raise
    leaves its state unread. Overflow and invalid operations, which arise
    only in a diverging run, are ignored under any caller error state.
    """
    n = rows.shape[1]
    if config.batch_size > n:
        raise InvalidParameterError(f"batch_size {config.batch_size} exceeds partition size {n}")
    if np.shape(labels) != (len(feats),) or rows.min() < 0 or rows.max() >= len(feats):
        raise InvalidParameterError(f"rows and labels must index the {len(feats)} feature rows")
    etas = resolve_schedule(config.step_schedule, config.iterations)
    check_step_bound(etas, kernel.problem.kappa_sq)

    rngs = [make_rng(partition_stream_seed(seed, s)) for _, s, seed in runs]
    sigma = kernel.problem.eigenvalues
    rates = etas / float(config.batch_size)

    lead = (len(runs),) if len(runs) > 1 else ()
    v = np.zeros(lead + (sigma.size,))
    batch = np.empty(lead + (config.batch_size, sigma.size))
    pred = np.empty(batch.shape[:-1])
    update = np.empty_like(v)
    draws = np.empty((min(SETTLE, config.iterations),) + pred.shape, dtype=np.int64)
    # A block's labels, each overwritten by its step.
    record = np.empty(draws.shape)
    if lead:  # column and row views, made once, for the stacked products
        product, v_in, pred_out = np.matmul, v[..., None], pred[..., None]
        update_out, step_rows = update[:, None], record[:, :, None]
    else:
        product, v_in, pred_out, update_out, step_rows = np.dot, v, pred, update, record
    diverged: dict[int, int] = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for t0 in range(0, config.iterations, SETTLE):
            k = min(SETTLE, config.iterations - t0)
            sample_block = draws[:k]
            by_run = sample_block.reshape(k, len(runs), config.batch_size)
            for r, ((block, _, _), rng) in enumerate(zip(runs, rngs)):
                by_run[:, r] = rows[block].take(rng.integers(0, n, (k, config.batch_size)))
            step_block = labels.take(sample_block, out=record[:k], mode="clip")
            for rate, sample_rows, step, step_row in zip(rates[t0:], sample_block, step_block,
                                                         step_rows):
                # mode="clip" writes straight into the buffer; every index is in range.
                feats.take(sample_rows, axis=0, out=batch, mode="clip")
                product(batch, v_in, out=pred_out)
                np.subtract(pred, step, out=step)  # the label becomes the step
                step *= rate
                product(step_row, batch, out=update_out)
                np.subtract(v, np.multiply(sigma, update, out=update), out=v)
            # Written so that a NaN or an infinity fails the comparison too.
            if not np.maximum(step_block.max(), -step_block.min()) <= DIVERGENCE_LIMIT:
                bad = ~(np.abs(step_block) <= DIVERGENCE_LIMIT).all(axis=-1).reshape(k, -1)
                for r in np.flatnonzero(bad.any(axis=0)):
                    diverged.setdefault(r, t0 + int(np.argmax(bad[:, r])) + 1)
                if 0 in diverged:  # the lowest run has met its first bad iteration
                    break
    if diverged:
        r = min(diverged)
        raise DivergenceError(f"SGM diverged at iteration {diverged[r]} on partition {runs[r][1]}")
    return v.reshape(len(runs), sigma.size)


def sgm_local(
    subset: Dataset,
    config: SgmConfig,
    kernel: KernelSpec,
    partition_index: int,
) -> Model:
    """Mini-batch SGM on one partition, sampling with replacement.

    Per iteration t, a batch of ``batch_size`` indices is drawn i.i.d.
    uniformly from the partition, and the predictor takes the step

        f -= (eta_t / b) * sum over batch slots j of (f(x_j) - y_j) K(x_j, .),

    all residuals evaluated at the iteration-start predictor. The predictor
    is carried as its mode vector v, which the step moves by
    -sigma * Phi_B^T (eta_t / b)(Phi_B v - y_B), so a step costs
    O(batch_size * dim). Index draws come from a dedicated stream seeded by
    (base_seed, partition_index) so partitions and replications are
    independent and reproducible. Raises DivergenceError if a step blows
    past DIVERGENCE_LIMIT or goes non-finite.
    """
    modes = _sgm_runs(_dataset_features(kernel, subset), subset.labels,
                      np.arange(len(subset))[None], config, kernel,
                      [(0, partition_index, config.base_seed)])
    return Model(modes[0], kernel)


def gm_local(subset: Dataset, step_schedule, iterations: int, kernel: KernelSpec) -> Model:
    """Full-batch gradient descent on one partition.

    This is the batch limit of sgm_local. T steps of it are the Landweber
    filter G_T of K/n, so it runs as :func:`sa_local` with that filter,
    whose spec checks the schedule.
    """
    spec = landweber(resolve_schedule(step_schedule, iterations), kernel.problem.kappa_sq)
    return sa_local(subset, spec, kernel)


def sa_local(subset: Dataset, filter_spec: FilterSpec, kernel: KernelSpec) -> Model:
    """Spectral-algorithm estimator on one partition.

    Applies the filter, at its own level lambda, to the scaled kernel matrix
    K/n and the label vector; the modes are those of the coefficients
    :func:`kdc.filters.apply_filter` gives.
    """
    return Model(_mode_filter(kernel, _dataset_features(kernel, subset), subset.labels,
                              filter_spec), kernel)


def _blocks(dataset: Dataset, kernel: KernelSpec, partitions: int, seed: int):
    """(Phi, rows): the sample's Phi and its ``_partition_rows`` (m, n)."""
    return _dataset_features(kernel, dataset), _partition_rows(len(dataset), partitions, seed)


def _filter_fits(feats: np.ndarray, rows: np.ndarray, labels: np.ndarray,
                 filter_spec: FilterSpec, kernel: KernelSpec) -> np.ndarray:
    """The mean over blocks of the filter fit's modes, (c, dim), one row per column of
    ``labels`` (N, c). A block fits all columns with one :func:`_mode_filter` on its copy of
    Phi's rows, and its modes are added in block order. One partition fits the sample in
    place: a filter fit does not depend on the order of its rows."""
    total = np.zeros((labels.shape[1], kernel.problem.dim))
    for idx in [slice(None)] if len(rows) == 1 else rows:
        total += _mode_filter(kernel, feats[idx], labels[idx], filter_spec)
    return total / len(rows)


def distributed_sgm(
    dataset: Dataset,
    config: SgmConfig,
    kernel: KernelSpec,
    partition_seed: int,
) -> Model:
    """Partition, train SGM on every block in lockstep, and average the predictors.

    Every block, one partition's too, trains on its rows of the sample permuted
    by ``partition_seed``; the average is the mean of the runs' mode vectors.
    """
    feats, rows = _blocks(dataset, kernel, config.partitions, partition_seed)
    modes = _sgm_runs(feats, dataset.labels, rows, config, kernel,
                      [(s, s, config.base_seed) for s in range(config.partitions)])
    return Model(modes.mean(axis=0), kernel)


def distributed_sa(
    dataset: Dataset,
    filter_spec: FilterSpec,
    kernel: KernelSpec,
    partitions: int,
    partition_seed: int,
) -> Model:
    """Partition, run the spectral algorithm on each block, and average.

    A filter estimator does not depend on the order of its rows, so one
    partition's fit is the whole sample's: the permutation drawn from
    ``partition_seed`` leaves it unchanged, and no rows are copied.
    """
    feats, rows = _blocks(dataset, kernel, partitions, partition_seed)
    return Model(_filter_fits(feats, rows, dataset.labels[:, None], filter_spec, kernel)[0],
                 kernel)


@dataclass(frozen=True)
class TrainPlan:
    """Planner output: the hyperparameters it decides for one (regime, N, m)."""

    algorithm: str
    partitions: int
    n_local: int
    batch_size: int | None
    iterations: int | None
    eta: float | None
    eta_raw: float | None
    lam: float | None
    partition_warning: bool

    @property
    def clamped(self) -> bool:
        """Whether a step-size cap lowered the planned step (eta below eta_raw)."""
        return self.eta is not None and self.eta < self.eta_raw

    def to_config(self, base_seed: int) -> SgmConfig:
        """SGM configuration realizing this plan."""
        if self.algorithm != "sgm":
            raise InvalidParameterError("only SGM plans convert to SgmConfig")
        return SgmConfig(
            partitions=self.partitions,
            batch_size=self.batch_size,
            iterations=self.iterations,
            step_schedule=self.eta,
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
    n_total follows the sample-size rule and is at least 2. Iteration counts
    round up, and more than MAX_ITERATIONS raise InvalidParameterError;
    batch sizes round to the nearest integer in [1, n]. Raises
    InvalidRegimeError for unknown tags and ConstraintViolationError when a
    regime's side condition fails.
    """
    check_sample_size(n_total)
    check_integer("partitions", partitions)
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
        t *= 1.0 - 1e-12
        if t > MAX_ITERATIONS:
            raise InvalidParameterError(
                f"regime {regime} plans {t:.4g} iterations, more than {MAX_ITERATIONS}")
        iters = max(1, math.ceil(t))
    eta = eta_raw
    if shape is not None and kappa_sq is not None:
        cap = 1.0 / (CLAMP_SAFETY * kappa_sq)
        if theory_compliant:
            cap = min(cap, theory_step_cap(CLAMP_SAFETY * kappa_sq, iters))
        eta = min(eta_raw, cap)

    # m beyond this threshold voids the averaging guarantee (bias dominates).
    threshold = big_n ** ((exponent_sum - 1.0) / exponent_sum) if exponent_sum > 1.0 else 1.0
    partition_warning = m > threshold

    return TrainPlan(
        algorithm=algorithm,
        partitions=m,
        n_local=n_local,
        batch_size=batch,
        iterations=iters,
        eta=eta,
        eta_raw=eta_raw,
        lam=lam,
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
