from __future__ import annotations

import copy
import dataclasses
import math
import warnings

import numpy as np
import pytest

from kdc import (
    Constant,
    ConstraintViolationError,
    Dataset,
    DivergenceError,
    DomainError,
    FilterSpec,
    IndivisibleDataError,
    InvalidParameterError,
    InvalidRegimeError,
    KernelMismatchError,
    Model,
    SgmConfig,
    StepConditionReport,
    apply_filter,
    average_models,
    build_problem,
    check_step_condition,
    distributed_sa,
    distributed_sgm,
    gm_local,
    gram,
    kernel_cross,
    landweber,
    partition_data,
    plan_parameters,
    predict,
    regression_value,
    resolve_schedule,
    sa_local,
    sample_dataset,
    sgm_local,
    spectral_kernel,
)
from kdc import trainers
from kdc.filters import (
    FILTER_TAGS, check_step_bound, filter_from_tag, landweber_recurrence,
)
from kdc.kernels import kernel_features
from kdc.seeding import make_rng, partition_stream_seed
from kdc.trainers import MAX_ITERATIONS, SETTLE
from oracles import population_bias

KAPPA_SQ_200 = 6.5736410355431385


@pytest.fixture(scope="module")
def kernel(small_problem):
    return spectral_kernel(small_problem)


@pytest.fixture(scope="module")
def data(small_problem):
    return sample_dataset(small_problem, 48, seed=2)


# ---------------------------------------------------------------------------
# schedules


def test_resolve_schedule_accepts_scalars_and_wrappers():
    np.testing.assert_array_equal(resolve_schedule(0.05, 4), np.full(4, 0.05))
    np.testing.assert_array_equal(resolve_schedule(Constant(0.1), 3), np.full(3, 0.1))
    np.testing.assert_array_equal(resolve_schedule([0.1, 0.2], 2), [0.1, 0.2])
    np.testing.assert_array_equal(resolve_schedule([0.3, 0.2, 0.1], 3), [0.3, 0.2, 0.1])


def test_resolve_schedule_rejects_bad_input():
    with pytest.raises(InvalidParameterError):
        resolve_schedule([0.1, 0.2], 3)
    with pytest.raises(InvalidParameterError):
        resolve_schedule([-0.1, 0.1], 2)
    with pytest.raises(InvalidParameterError):
        resolve_schedule(math.nan, 2)
    with pytest.raises(InvalidParameterError):
        resolve_schedule(0.1, 0)


@pytest.mark.parametrize("schedule", ["abc", [0.1, "abc"], [[0.1, 0.2], [0.1]], 10**400,
                                      Constant("abc")])
def test_a_schedule_that_is_not_numbers_is_a_parameter_error(schedule):
    message = "a step schedule must be a number, a Constant or a sequence of numbers"
    with pytest.raises(InvalidParameterError, match=message):
        resolve_schedule(schedule, 2)
    with pytest.raises(InvalidParameterError, match=message):
        SgmConfig(partitions=1, batch_size=1, iterations=2, step_schedule=schedule, base_seed=0)


# ---------------------------------------------------------------------------
# partitioning


def test_partition_blocks_cover_the_data_once(data):
    subs = partition_data(data, 4, seed=9)
    assert len(subs) == 4
    assert all(len(s) == 12 for s in subs)
    xs = np.concatenate([s.inputs for s in subs])
    ys = np.concatenate([s.labels for s in subs])
    np.testing.assert_array_equal(np.sort(xs), np.sort(data.inputs))
    np.testing.assert_array_equal(np.sort(ys), np.sort(data.labels))


def test_partition_is_deterministic_in_the_seed(data):
    a = partition_data(data, 4, seed=9)
    b = partition_data(data, 4, seed=9)
    c = partition_data(data, 4, seed=10)
    for s, t in zip(a, b):
        np.testing.assert_array_equal(s.inputs, t.inputs)
    assert any(not np.array_equal(s.inputs, t.inputs) for s, t in zip(a, c))


def test_partition_requires_divisibility(data):
    with pytest.raises(IndivisibleDataError):
        partition_data(data, 5, seed=0)


def test_partition_blocks_carry_no_features(data):
    # A block is its inputs and labels; a fit of it evaluates its own Phi.
    for block in partition_data(data, 4, seed=9):
        assert block.features is None
        assert not block.inputs.flags.writeable and not block.labels.flags.writeable
    bare = Dataset(data.inputs, data.labels)
    assert all(block.features is None for block in partition_data(bare, 4, seed=9))


def distributed_fits(kernel, partitions):
    """distributed_sgm and distributed_sa (Tikhonov, Landweber) as functions of a dataset."""
    ksq = kernel.problem.kappa_sq
    cfg = SgmConfig(partitions=partitions, batch_size=3, iterations=4 * SETTLE + 9,
                    step_schedule=0.05, base_seed=12)
    return {
        "sgm": lambda d: distributed_sgm(d, cfg, kernel, partition_seed=7),
        "tikhonov": lambda d: distributed_sa(d, FilterSpec("tikhonov", ksq, 1e-2), kernel,
                                             partitions, 7),
        "landweber": lambda d: distributed_sa(d, landweber(np.full(25, 0.05), ksq), kernel,
                                              partitions, 7),
    }


def assert_same_bits(a, b):
    np.testing.assert_array_equal(a.modes, b.modes)


# n_local 12, 48 and 48, dim 20; one partition fits the sample in place.
@pytest.mark.parametrize("n_total, partitions", [(48, 4), (96, 2), (48, 1)])
def test_sampled_features_give_the_bits_of_features_evaluated_afresh(
        small_problem, kernel, n_total, partitions):
    data = sample_dataset(small_problem, n_total, seed=3)
    bare = Dataset(data.inputs, data.labels)
    for fit in distributed_fits(kernel, partitions).values():
        assert_same_bits(fit(data), fit(bare))


def test_sampled_features_are_used_only_at_the_kernels_dim(small_problem, kernel):
    # Phi depends only on dim and the inputs: a sample of another problem of the same dim
    # reuses its Phi, and one of another dim has it evaluated afresh; the bits are those of
    # the bare sample either way.
    wider = sample_dataset(build_problem(dim=21, gamma=1.0, zeta=0.5, noise_sd=0.1), 48, seed=3)
    steeper = sample_dataset(build_problem(dim=20, gamma=0.5, zeta=0.5, noise_sd=0.1), 48, seed=3)
    assert wider.features.shape == (48, 21)
    for fit in distributed_fits(kernel, 4).values():
        for data in (wider, steeper):
            assert_same_bits(fit(data), fit(Dataset(data.inputs, data.labels)))


def test_a_reordered_sample_fits_as_one_built_afresh(small_problem, kernel):
    # replace() keeps no Phi of the old row order: the fit reads the rows it is given.
    data = sample_dataset(small_problem, 64, seed=3)
    reversed_ = dataclasses.replace(data, inputs=data.inputs[::-1], labels=data.labels[::-1])
    fresh = Dataset(reversed_.inputs, reversed_.labels)
    ksq = small_problem.kappa_sq
    cfg = SgmConfig(partitions=1, batch_size=3, iterations=4 * SETTLE + 9, step_schedule=0.05,
                    base_seed=12)
    fits = {**distributed_fits(kernel, 4),
            "sgm_local": lambda d: sgm_local(d, cfg, kernel, 0),
            "sa_local": lambda d: sa_local(d, FilterSpec("tikhonov", ksq, 1e-2), kernel)}
    for fit in fits.values():
        assert_same_bits(fit(reversed_), fit(fresh))


def test_features_are_derived_never_given(small_problem):
    data = sample_dataset(small_problem, 48, seed=3)
    with pytest.raises(TypeError):
        Dataset(data.inputs, data.labels, features=data.features)
    with pytest.raises(ValueError):
        dataclasses.replace(data, features=data.features)
    assert dataclasses.replace(data, labels=-data.labels).features is None
    assert copy.deepcopy(data).features is None


# ---------------------------------------------------------------------------
# local SGM


def test_sgm_zero_steps_leave_the_modes_at_zero(data, kernel):
    cfg = SgmConfig(partitions=1, batch_size=1, iterations=10, step_schedule=0.0, base_seed=1)
    model = sgm_local(data, cfg, kernel, 0)
    np.testing.assert_array_equal(model.modes, np.zeros(kernel.problem.dim))


def test_sgm_is_reproducible_and_seed_sensitive(data, kernel):
    cfg = SgmConfig(partitions=1, batch_size=4, iterations=30, step_schedule=0.1, base_seed=5)
    a = sgm_local(data, cfg, kernel, 0)
    b = sgm_local(data, cfg, kernel, 0)
    np.testing.assert_array_equal(a.modes, b.modes)
    c = sgm_local(data, cfg, kernel, 1)
    assert not np.array_equal(a.modes, c.modes)


def modes_of(kernel, subset, alpha):
    """Modes sigma * Phi^T alpha of the predictor weighting the sections at the inputs by alpha."""
    return kernel.problem.eigenvalues * (kernel_features(kernel, subset.inputs).T @ alpha)


def gram_replay(kernel, subset, base_seed, partition, batch, iterations, eta):
    """SGM on one partition replayed step by step on its Gram matrix."""
    g = gram(kernel, subset.inputs)
    rng = np.random.default_rng(partition_stream_seed(base_seed, partition))
    idx = rng.integers(0, len(subset), size=(iterations, batch))
    alpha = np.zeros(len(subset))
    for rows in idx:
        resid = g[rows, :] @ alpha - subset.labels[rows]
        upd = np.zeros(len(subset))
        np.add.at(upd, rows, resid)
        alpha -= (eta / batch) * upd
    return alpha, idx


@pytest.mark.parametrize("n", [12, 48])  # below and above dim = 20
def test_sgm_single_full_batch_step_matches_gradient_descent(small_problem, kernel, n):
    # With b = n the first iteration multiplies each sampled residual by
    # its multiplicity; one step with eta and batch "every index once" is
    # not guaranteed, so check against an explicit replay instead.
    data = sample_dataset(small_problem, n, seed=2)
    cfg = SgmConfig(partitions=1, batch_size=8, iterations=12, step_schedule=0.05, base_seed=33)
    model = sgm_local(data, cfg, kernel, 2)
    alpha, _ = gram_replay(kernel, data, 33, 2, 8, 12, 0.05)
    np.testing.assert_allclose(model.modes, modes_of(kernel, data, alpha), rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize(
    "n_total, partitions, batch, iterations",
    # n_local = 12 < dim = 20 and 48 > dim; both runs end in a partial block.
    [(48, 4, 8, 4 * SETTLE + 7), (96, 2, 3, 8 * SETTLE + 1)],
)
def test_distributed_sgm_matches_a_gram_replay_per_partition(
    small_problem, kernel, n_total, partitions, batch, iterations
):
    data = sample_dataset(small_problem, n_total, seed=3)
    cfg = SgmConfig(
        partitions=partitions, batch_size=batch, iterations=iterations,
        step_schedule=0.05, base_seed=21,
    )
    model = distributed_sgm(data, cfg, kernel, partition_seed=8)
    duplicates = False
    modes = []
    for s, sub in enumerate(partition_data(data, partitions, 8)):
        alpha, idx = gram_replay(kernel, sub, 21, s, batch, iterations, 0.05)
        duplicates |= any(np.unique(rows).size < batch for rows in idx)
        modes.append(modes_of(kernel, sub, alpha))
    np.testing.assert_allclose(model.modes, np.mean(modes, axis=0), rtol=1e-12, atol=1e-15)
    assert duplicates


@pytest.mark.parametrize("tag", FILTER_TAGS)
@pytest.mark.parametrize("n_total, partitions", [(48, 4), (96, 2), (48, 1)])
def test_distributed_sa_is_sa_local_per_partition_bit_for_bit(
        small_problem, kernel, tag, n_total, partitions):
    data = sample_dataset(small_problem, n_total, seed=3)
    spec = filter_from_tag(tag, small_problem.kappa_sq, 0.05)
    model = distributed_sa(data, spec, kernel, partitions, partition_seed=8)
    # One partition's block is the sample itself, in input order.
    blocks = [data] if partitions == 1 else partition_data(data, partitions, 8)
    expected = average_models([sa_local(block, spec, kernel) for block in blocks])
    np.testing.assert_array_equal(model.modes, expected.modes)


# 3 * 2**22 takes numpy's 32-bit bounded path, which rejects about one word in 1024: this
# stream rejects one word at batch 1 and three at batch 3, each redrawn.
@pytest.mark.parametrize("n", [12, 3 * 2**22, 2**33 + 5])
@pytest.mark.parametrize("batch", [1, 3])
def test_chunked_index_draws_equal_the_one_shot_stream(n, batch):
    t = 8 * SETTLE + 5
    one_shot = np.random.default_rng(77).integers(0, n, size=(t, batch))
    rng = np.random.default_rng(77)
    chunks = [
        rng.integers(0, n, size=(min(SETTLE, t - t0), batch))
        for t0 in range(0, t, SETTLE)
    ]
    np.testing.assert_array_equal(np.concatenate(chunks), one_shot)


def test_distributed_sgm_raises_the_divergence_met_first_in_partition_order(
    small_problem, kernel
):
    # One poisoned label per partition makes it diverge the first time its
    # index is drawn. Partition 1 meets its label before partition 0 does,
    # but trained one after another, partition 0 raises first.
    n_total, m, batch, iterations, base = 64, 4, 2, 40, 5
    data = sample_dataset(small_problem, n_total, seed=6)
    subs = partition_data(data, m, 31)
    first = []  # per partition: local index -> first iteration that draws it
    for s in range(m):
        rng = np.random.default_rng(partition_stream_seed(base, s))
        idx = rng.integers(0, n_total // m, size=(iterations, batch))
        first.append({j: int(np.argmax((idx == j).any(axis=1))) + 1 for j in np.unique(idx)})
    late0 = max(first[0], key=first[0].get)
    early1 = min(first[1], key=first[1].get)
    assert first[0][late0] > first[1][early1]

    def poisoned(*marks):
        labels = data.labels.copy()
        for s, j, value in marks:
            labels[data.inputs == subs[s].inputs[j]] = value
        return Dataset(inputs=data.inputs, labels=labels)

    cfg = SgmConfig(
        partitions=m, batch_size=batch, iterations=iterations, step_schedule=0.05, base_seed=base
    )
    # An infinite label overflows partition 1 at once; the others still finish.
    both = poisoned((0, late0, 1e20), (1, early1, np.inf))
    with pytest.raises(DivergenceError, match=f"iteration {first[0][late0]} on partition 0$"):
        distributed_sgm(both, cfg, kernel, partition_seed=31)
    with pytest.raises(DivergenceError, match=f"iteration {first[1][early1]} on partition 1$"):
        distributed_sgm(poisoned((1, early1, 1e20)), cfg, kernel, partition_seed=31)


def literal_sgm_runs(feats, labels, rows, config, kernel, runs):
    """The lockstep loop step by step with fresh arrays: (alpha, modes, divergence message).

    Each run's coefficients alpha are kept beside its modes for a test that reads them.

    Each block of SETTLE steps draws its own indices. A run diverges at its first step past
    the limit or not finite, and steps on; overflow and invalid operations are ignored, as
    in the loop."""
    n = rows.shape[1]
    rngs = [np.random.default_rng(partition_stream_seed(seed, s)) for _, s, seed in runs]
    run_rows = rows[[i for i, _, _ in runs]].ravel()
    own = n * np.arange(len(runs))[:, None]
    sigma = kernel.problem.eigenvalues
    steps = resolve_schedule(config.step_schedule, config.iterations) / float(config.batch_size)
    alpha = np.zeros(len(runs) * n)
    v = np.zeros((len(runs), sigma.size))
    diverged = {}
    for t0 in range(0, config.iterations, SETTLE):
        k = min(SETTLE, config.iterations - t0)
        draws = np.stack([rng.integers(0, n, (k, config.batch_size)) for rng in rngs], axis=1)
        draws += own
        for t, own_rows in zip(range(t0, t0 + k), draws):
            sample_rows = run_rows[own_rows]
            batch = feats[sample_rows]
            with np.errstate(over="ignore", invalid="ignore"):
                step = steps[t] * (np.matmul(batch, v[:, :, None])[..., 0] - labels[sample_rows])
                np.subtract.at(alpha, own_rows, step)
                v -= sigma * np.matmul(step[:, None, :], batch)[:, 0]
            for r in np.flatnonzero(~(np.abs(step).max(axis=1) <= trainers.DIVERGENCE_LIMIT)):
                diverged.setdefault(r, t + 1)
    message = None
    if diverged:
        r = min(diverged)
        message = f"SGM diverged at iteration {diverged[r]} on partition {runs[r][1]}"
    return alpha.reshape(len(runs), n), v, message


def lockstep_case(small_problem, n_total, partitions, batch, iterations):
    """A sample, its partition rows, a config and two index replications of every partition."""
    data = sample_dataset(small_problem, n_total, seed=5)
    rows = trainers._partition_rows(n_total, partitions, 3)
    cfg = SgmConfig(partitions=partitions, batch_size=batch, iterations=iterations,
                    step_schedule=0.05, base_seed=17)
    return data, rows, cfg, [(s, s, 17 + r) for r in range(2) for s in range(partitions)]


def assert_sgm_runs_match_the_literal_loop(features, labels, rows, cfg, kernel, runs):
    """Check the modes, or the divergence message, bit for bit; returns the message."""
    _, modes, message = literal_sgm_runs(features, labels, rows, cfg, kernel, runs)
    if message is None:
        got_modes = trainers._sgm_runs(features, labels, rows, cfg, kernel, runs)
        np.testing.assert_array_equal(got_modes, modes)
    else:
        with pytest.raises(DivergenceError) as err:
            trainers._sgm_runs(features, labels, rows, cfg, kernel, runs)
        assert str(err.value) == message
    return message


@pytest.mark.parametrize(
    "n_total, partitions, batch, iterations, poisoned",
    [
        (48, 1, 1, 30, False),  # R = 1, b = 1
        (48, 4, 12, 30, False),  # R = 4, b = n_local
        (96, 2, 3, 8 * SETTLE + 9, False),  # several blocks and a partial one
        (1024, 4, 1, 4 * SETTLE + 40, True),  # one run diverges inside a block
    ],
)
def test_sgm_runs_equal_a_literal_step_loop_bit_for_bit(
    small_problem, kernel, n_total, partitions, batch, iterations, poisoned
):
    data, rows, cfg, runs = lockstep_case(small_problem, n_total, partitions, batch, iterations)
    labels = data.labels.copy()
    if poisoned:
        # Poison the row that run 1 first draws nearest 20 steps into its fifth block.
        rng = np.random.default_rng(partition_stream_seed(runs[1][2], runs[1][1]))
        draws = rng.integers(0, n_total // partitions, iterations)
        first = {j: int(np.argmax(draws == j)) + 1 for j in np.unique(draws)}
        mid = 4 * SETTLE + 20
        j = min(first, key=lambda j: abs(first[j] - mid))
        assert 1 < first[j] % SETTLE
        labels[rows[1, j]] = 1e20
    message = assert_sgm_runs_match_the_literal_loop(data.features, labels, rows, cfg, kernel,
                                                     runs)
    assert (message is not None) == poisoned
    if poisoned:
        assert message.endswith(f"iteration {first[j]} on partition 1")


def test_blocks_equal_the_literal_loop_across_blocks_with_duplicate_draws(
    small_problem, kernel
):
    iterations = 5 * SETTLE + 13
    data, rows, cfg, runs = lockstep_case(small_problem, 96, 2, 8, iterations)
    # A batch that draws a row twice steps on both of its slots.
    draws = np.random.default_rng(partition_stream_seed(17, 0)).integers(0, 48, (iterations, 8))
    assert any(len(set(batch)) < 8 for batch in draws)
    assert assert_sgm_runs_match_the_literal_loop(
        data.features, data.labels, rows, cfg, kernel, runs) is None


def test_a_coefficient_past_the_limit_is_no_divergence(small_problem, kernel, monkeypatch):
    data, rows, cfg, runs = lockstep_case(small_problem, 96, 2, 3, 8 * SETTLE + 9)
    # Every |step| of this case is about 0.0225 at most and some |alpha| about 0.154;
    # the rule reads the steps, so a limit between the two is not passed.
    monkeypatch.setattr(trainers, "DIVERGENCE_LIMIT", 0.05)
    alpha, _, message = literal_sgm_runs(data.features, data.labels, rows, cfg, kernel, runs)
    assert message is None
    assert np.abs(alpha).max() > 0.05
    assert assert_sgm_runs_match_the_literal_loop(
        data.features, data.labels, rows, cfg, kernel, runs) is None


@pytest.mark.parametrize("where", ["inside the first block", "on a block's last step"])
def test_a_divergence_is_read_at_its_step_within_a_block(small_problem, kernel, where):
    iterations = 4 * SETTLE + 40
    data, rows, cfg, runs = lockstep_case(small_problem, 1024, 4, 1, iterations)
    draws = np.random.default_rng(partition_stream_seed(17, 1)).integers(0, 256, iterations)
    first = {j: int(np.argmax(draws == j)) + 1 for j in np.unique(draws)}
    if where == "inside the first block":
        j = min(first, key=lambda j: abs(first[j] - SETTLE // 2))
        assert 1 < first[j] < SETTLE
    else:
        j = next(j for j in first if first[j] % SETTLE == 0)
    labels = data.labels.copy()
    labels[rows[1, j]] = 1e20
    message = assert_sgm_runs_match_the_literal_loop(data.features, labels, rows, cfg, kernel,
                                                     runs)
    assert message == f"SGM diverged at iteration {first[j]} on partition 1"


@pytest.mark.parametrize("poisoned", [False, True])
@pytest.mark.parametrize("batch", [1, 3])
def test_a_run_stepped_alone_has_the_bits_of_its_row_in_a_lockstep(
    small_problem, kernel, batch, poisoned
):
    # One run steps on 2-D arrays with np.dot, several on stacks with np.matmul.
    iterations = 3 * SETTLE + 9
    data, rows, cfg, runs = lockstep_case(small_problem, 96, 2, batch, iterations)
    labels = data.labels.copy()
    if poisoned:
        # Run 1 meets a poisoned row of partition 1 inside its second block.
        draws = np.random.default_rng(partition_stream_seed(runs[1][2], runs[1][1])).integers(
            0, 48, (iterations, batch))
        first = {j: int(np.argmax((draws == j).any(axis=1))) + 1 for j in np.unique(draws)}
        j = min(first, key=lambda j: abs(first[j] - SETTLE - 20))
        assert SETTLE < first[j] <= 2 * SETTLE
        labels[rows[1, j]] = 1e20
    # sgm_local is the core with one run: run 1, on partition 1's block.
    block = dataclasses.replace(data, labels=labels[rows[1]], inputs=data.inputs[rows[1]])
    run_1 = dataclasses.replace(cfg, partitions=1, base_seed=runs[1][2])
    if poisoned:
        for fit in (lambda: trainers._sgm_runs(data.features, labels, rows, cfg, kernel, runs),
                    lambda: trainers._sgm_runs(data.features, labels, rows, cfg, kernel,
                                               [runs[1]]),
                    lambda: sgm_local(block, run_1, kernel, 1)):
            with pytest.raises(DivergenceError) as err:
                fit()
            assert str(err.value) == f"SGM diverged at iteration {first[j]} on partition 1"
        return
    together = trainers._sgm_runs(data.features, labels, rows, cfg, kernel, runs)
    for r, run in enumerate(runs):
        alone = trainers._sgm_runs(data.features, labels, rows, cfg, kernel, [run])
        np.testing.assert_array_equal(alone, together[r:r + 1])
    np.testing.assert_array_equal(sgm_local(block, run_1, kernel, 1).modes, together[1])


class CountingRng:
    """An index stream that records each of its draws."""

    def __init__(self, rng, draws):
        self.rng, self.draws = rng, draws

    def integers(self, *args, **kwargs):
        self.draws.append(args)
        return self.rng.integers(*args, **kwargs)


def count_draws(monkeypatch) -> list:
    """Record every index draw of the SGM core from now on: one per run and block."""
    draws = []
    monkeypatch.setattr(trainers, "make_rng", lambda seed: CountingRng(make_rng(seed), draws))
    return draws


@pytest.mark.parametrize("poisoned, blocks", [(None, 5), (0, 1), (1, 5)])
def test_sgm_runs_stop_at_the_block_in_which_run_0_diverges(
    small_problem, kernel, monkeypatch, poisoned, blocks
):
    # Runs 0 and 2 train partition 0, runs 1 and 3 partition 1; 5 blocks of steps.
    data, rows, cfg, runs = lockstep_case(small_problem, 96, 2, 3, 4 * SETTLE + 9)
    labels = data.labels.copy()
    if poisoned is not None:
        labels[rows[poisoned]] = np.inf
    draws = count_draws(monkeypatch)
    message = assert_sgm_runs_match_the_literal_loop(data.features, labels, rows, cfg, kernel,
                                                     runs)
    assert len(draws) == len(runs) * blocks
    if poisoned is not None:
        assert message == f"SGM diverged at iteration 1 on partition {poisoned}"


def test_sgm_local_stops_at_the_block_of_its_divergence(small_problem, kernel, monkeypatch):
    data = sample_dataset(small_problem, 48, seed=5)
    poisoned = Dataset(inputs=data.inputs, labels=np.full(48, np.inf))
    cfg = SgmConfig(partitions=1, batch_size=3, iterations=4 * SETTLE + 9, step_schedule=0.05,
                    base_seed=17)
    draws = count_draws(monkeypatch)
    with pytest.raises(DivergenceError, match="iteration 1 on partition 2$"):
        sgm_local(poisoned, cfg, kernel, partition_index=2)
    assert len(draws) == 1


def test_an_infinite_label_diverges_under_any_error_state_and_restores_it(
    small_problem, kernel
):
    data, rows, cfg, runs = lockstep_case(small_problem, 96, 2, 3, 2 * SETTLE + 5)
    before = np.geterr()
    assert_sgm_runs_match_the_literal_loop(data.features, data.labels, rows, cfg, kernel, runs)
    assert np.geterr() == before
    # One infinite label gives an infinite step. With every label of partition 1
    # infinite, a batch also sums infinities of both signs into NaNs. Neither
    # warns nor raises a floating-point error: each is the same divergence.
    one = data.labels.copy()
    one[rows[1, 7]] = np.inf
    every = data.labels.copy()
    every[rows[1]] = np.inf
    for labels in (one, every):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message = assert_sgm_runs_match_the_literal_loop(data.features, labels, rows, cfg,
                                                             kernel, runs)
        assert message is not None
        assert np.geterr() == before
        with np.errstate(all="raise"):
            with pytest.raises(DivergenceError) as got:
                trainers._sgm_runs(data.features, labels, rows, cfg, kernel, runs)
            assert set(np.geterr().values()) == {"raise"}
        assert str(got.value) == message
        assert np.geterr() == before


@pytest.mark.parametrize("fault", ["row past the end", "negative row", "short labels",
                                   "long labels"])
def test_sgm_runs_reject_rows_and_labels_outside_the_features(data, kernel, fault):
    # The gather clips out-of-range rows, so they must be refused before it runs.
    rows = np.arange(len(data)).reshape(4, -1)
    labels = data.labels
    if fault == "row past the end":
        rows[2, 5] = len(data)
    elif fault == "negative row":
        rows[0, 0] = -1
    else:
        labels = labels[:-1] if fault == "short labels" else np.append(labels, 0.0)
    cfg = SgmConfig(partitions=4, batch_size=2, iterations=5, step_schedule=0.05, base_seed=0)
    with pytest.raises(InvalidParameterError, match="index the 48 feature rows"):
        trainers._sgm_runs(data.features, labels, rows, cfg, kernel, [(s, s, 0) for s in range(4)])


def test_sgm_validates_batch_and_steps(data, kernel):
    with pytest.raises(InvalidParameterError):
        sgm_local(
            data,
            SgmConfig(partitions=1, batch_size=49, iterations=5, step_schedule=0.1, base_seed=0),
            kernel,
            0,
        )
    with pytest.raises(InvalidParameterError):
        sgm_local(
            data,
            SgmConfig(partitions=1, batch_size=1, iterations=5, step_schedule=1.0, base_seed=0),
            kernel,
            0,
        )


@pytest.mark.parametrize("name", ["partitions", "batch_size", "iterations"])
def test_sgm_config_counts_must_be_positive(name):
    counts = dict(partitions=1, batch_size=1, iterations=1)
    counts[name] = 0
    with pytest.raises(InvalidParameterError, match=f"{name} must be >= 1"):
        SgmConfig(**counts, step_schedule=0.1, base_seed=0)


def sgm_config(**counts):
    return SgmConfig(**{"partitions": 1, "batch_size": 1, "iterations": 1, "base_seed": 0,
                        **counts}, step_schedule=0.1)


@pytest.mark.parametrize("name, call", [
    ("partitions", lambda p, ds: sgm_config(partitions=1.5)),
    ("batch_size", lambda p, ds: sgm_config(batch_size=True)),
    ("iterations", lambda p, ds: sgm_config(iterations=2.5)),
    ("base_seed", lambda p, ds: sgm_config(base_seed=0.0)),
    ("iterations", lambda p, ds: resolve_schedule(0.1, np.int64(3))),
    ("n_total", lambda p, ds: plan_parameters("cor5", 1000.5, 1, 0.5, 1.0)),
    ("partitions", lambda p, ds: plan_parameters("cor5", 1000, 2.0, 0.5, 1.0)),
    ("n_total", lambda p, ds: sample_dataset(p, 10.5, 0)),
    ("seed", lambda p, ds: sample_dataset(p, 10, 1.5)),
    ("partitions", lambda p, ds: partition_data(ds, 2.0, 0)),
    ("partitions", lambda p, ds: distributed_sa(
        ds, FilterSpec("tikhonov", p.kappa_sq, 0.1), spectral_kernel(p), 2.0, 0)),
    ("seed", lambda p, ds: make_rng(np.int64(3))),
], ids=["SgmConfig.partitions", "SgmConfig.batch_size", "SgmConfig.iterations",
        "SgmConfig.base_seed", "resolve_schedule", "plan_parameters.n_total",
        "plan_parameters.partitions", "sample_dataset.n_total", "sample_dataset.seed",
        "partition_data", "distributed_sa", "make_rng"])
def test_counts_and_seeds_follow_one_integer_rule(small_problem, data, name, call):
    # A Python int; true/false and numpy integers are not one (nor is dim's np.int64).
    with pytest.raises(InvalidParameterError, match=f"{name} must be an integer, got "):
        call(small_problem, data)


def test_an_iteration_count_past_the_bound_is_a_parameter_error(default_problem):
    message = f"iterations must be <= {MAX_ITERATIONS}"
    with pytest.raises(InvalidParameterError, match=message):
        resolve_schedule(0.1, 10**15)
    with pytest.raises(InvalidParameterError, match=message):
        sgm_config(iterations=MAX_ITERATIONS + 1)
    assert resolve_schedule(0.1, 3).shape == (3,)


def test_the_planner_refuses_more_iterations_than_the_bound(default_problem):
    # At 2 zeta + gamma = 1, cor3.1 plans N^2 steps: 2.8e14 at N = 2^24, 6.7e7 at 2^13.
    ksq = default_problem.kappa_sq
    with pytest.raises(InvalidParameterError, match=f"iterations, more than {MAX_ITERATIONS}"):
        plan_parameters("cor3.1", 2**24, 1, 0.25, 0.5, kappa_sq=ksq)
    assert plan_parameters("cor3.1", 2**13, 1, 0.25, 0.5, kappa_sq=ksq).iterations == 2**26


@pytest.mark.parametrize("problem_name, n", [("small_problem", 48), ("default_problem", 240)])
def test_local_fits_give_the_bits_of_features_evaluated_afresh(request, problem_name, n):
    # The local trainers read the sample's own feature matrix when it is the kernel's;
    # their modes must be those of one evaluated from the inputs, bit for bit.
    problem = request.getfixturevalue(problem_name)
    kernel = spectral_kernel(problem)
    data = sample_dataset(problem, n, seed=11)
    bare = Dataset(data.inputs, data.labels)
    cfg = SgmConfig(partitions=1, batch_size=2, iterations=40, step_schedule=0.05, base_seed=6)
    for fit in (lambda d: sa_local(d, FilterSpec("tikhonov", problem.kappa_sq, 1e-2), kernel),
                lambda d: gm_local(d, 0.05, 30, kernel),
                lambda d: sgm_local(d, cfg, kernel, 0)):
        assert_same_bits(fit(data), fit(bare))


@pytest.mark.parametrize("tag", FILTER_TAGS)
def test_one_partition_sa_is_sa_local_on_the_sample(data, kernel, small_problem, tag):
    # A filter fit does not depend on row order, so one block is the sample as it is.
    spec = filter_from_tag(tag, small_problem.kappa_sq, 0.05)
    model = distributed_sa(data, spec, kernel, 1, partition_seed=4)
    expected = sa_local(data, spec, kernel)
    np.testing.assert_array_equal(model.modes, expected.modes)


@pytest.mark.parametrize("n", [12, 48])  # below and above dim = 20
def test_one_partition_sgm_is_its_permuted_block(small_problem, kernel, n):
    # The one block keeps its permuted index stream, so training is the permuted block's.
    data = sample_dataset(small_problem, n, seed=5)
    cfg = SgmConfig(partitions=1, batch_size=3, iterations=4 * SETTLE + 9,
                    step_schedule=0.05, base_seed=21)
    model = distributed_sgm(data, cfg, kernel, partition_seed=8)
    (block,) = partition_data(data, 1, 8)
    permuted = sgm_local(block, cfg, kernel, 0)
    np.testing.assert_allclose(model.modes, permuted.modes, rtol=1e-12, atol=0.0)


def test_distributed_sa_needs_a_partition(data, kernel, small_problem):
    with pytest.raises(InvalidParameterError, match="partitions must be >= 1"):
        distributed_sa(data, FilterSpec("tikhonov", small_problem.kappa_sq, 0.1), kernel, 0, 0)


@pytest.mark.parametrize("x", [1.5, -0.25])
def test_local_fits_reject_inputs_outside_the_unit_interval(small_problem, kernel, x):
    sample = Dataset(inputs=np.array([0.5, x]), labels=np.ones(2))
    cfg = SgmConfig(partitions=1, batch_size=1, iterations=2, step_schedule=0.1, base_seed=0)
    with pytest.raises(DomainError):
        sa_local(sample, FilterSpec("tikhonov", small_problem.kappa_sq, 0.1), kernel)
    with pytest.raises(DomainError):
        sgm_local(sample, cfg, kernel, 0)


# ---------------------------------------------------------------------------
# batch gradient descent and its idealized twin


def test_gm_matches_the_filter_route(data, kernel, small_problem):
    etas = np.full(40, 0.1)
    model = gm_local(data, etas, 40, kernel)
    g = gram(kernel, data.inputs)
    spec = landweber(etas, kappa_sq=small_problem.kappa_sq)
    coeffs = apply_filter(spec, g, data.labels)
    np.testing.assert_allclose(model.modes, modes_of(kernel, data, coeffs), rtol=1e-10, atol=1e-13)


def test_gm_first_step_closed_form(data, kernel):
    model = gm_local(data, [0.07], 1, kernel)
    # The modes come out of one eigh, W diag(G) W^T with G = 0.07 everywhere, so they are
    # exact to 1e-15 of the largest mode, not of each one.
    expected = modes_of(kernel, data, 0.07 * data.labels / len(data))
    np.testing.assert_allclose(model.modes, expected, rtol=0.0,
                               atol=1e-15 * np.max(np.abs(expected)))


@pytest.mark.parametrize("n", [12, 48])  # below and above dim = 20
def test_gm_zero_steps_change_nothing(small_problem, kernel, n):
    # A zero step leaves the Landweber filter, hence the iterate, unchanged.
    data = sample_dataset(small_problem, n, seed=n)
    etas = [0.1, 0.05, 0.12, 0.08]
    padded = [0.0, 0.1, 0.05, 0.0, 0.12, 0.08, 0.0]
    a = gm_local(data, etas, len(etas), kernel)
    b = gm_local(data, padded, len(padded), kernel)
    np.testing.assert_array_equal(a.modes, b.modes)


def test_gm_rejects_an_all_zero_schedule(data, kernel):
    with pytest.raises(InvalidParameterError):
        gm_local(data, 0.0, 5, kernel)
    with pytest.raises(InvalidParameterError):
        gm_local(data, [0.0, 0.0], 2, kernel)


def pseudo(data, problem):
    """The dataset with its labels replaced by the noiseless f(x_j)."""
    return dataclasses.replace(data, labels=regression_value(problem, data.inputs))


def test_pseudo_gm_equals_gm_without_noise(noiseless_small_problem):
    kernel = spectral_kernel(noiseless_small_problem)
    data = sample_dataset(noiseless_small_problem, 32, seed=4)
    a = gm_local(data, 0.1, 25, kernel)
    b = gm_local(pseudo(data, noiseless_small_problem), 0.1, 25, kernel)
    np.testing.assert_array_equal(a.modes, b.modes)


def test_pseudo_gm_strips_label_noise(small_problem, kernel):
    data = sample_dataset(small_problem, 32, seed=4)
    a = gm_local(data, 0.1, 25, kernel)
    b = gm_local(pseudo(data, small_problem), 0.1, 25, kernel)
    assert not np.array_equal(a.modes, b.modes)


# ---------------------------------------------------------------------------
# population iterates


def test_population_filter_matches_scalar_recursion(small_problem):
    etas = [0.1, 0.05, 0.12]
    g = landweber_recurrence(resolve_schedule(etas, 3), small_problem.eigenvalues)
    for i, sigma in enumerate(small_problem.eigenvalues[:5]):
        ref = 0.0
        for eta in etas:
            ref = ref * (1.0 - eta * sigma) + eta
        assert g[i] == pytest.approx(ref, rel=1e-14)


def test_population_bias_is_the_weighted_squared_residual(small_problem):
    t, eta = 30, 0.1
    expected = float(
        np.sum(
            small_problem.target_coeffs**2
            * (1.0 - eta * small_problem.eigenvalues) ** (2 * t)
        )
    )
    assert population_bias(small_problem, eta, t) == pytest.approx(expected, rel=1e-11)


def test_population_bias_decreases_with_iterations(small_problem):
    biases = [population_bias(small_problem, 0.1, t) for t in (1, 5, 25, 125)]
    assert all(a > b for a, b in zip(biases, biases[1:]))


# ---------------------------------------------------------------------------
# averaging and prediction


def test_average_models_takes_the_plain_mean(data, kernel):
    cfg = SgmConfig(partitions=1, batch_size=2, iterations=10, step_schedule=0.1, base_seed=3)
    a = sgm_local(data, cfg, kernel, 0)
    b = sgm_local(data, cfg, kernel, 1)
    avg = average_models([a, b])
    assert isinstance(avg, Model)
    xs = np.linspace(0.05, 0.95, 7)
    np.testing.assert_allclose(
        predict(avg, xs), 0.5 * (predict(a, xs) + predict(b, xs)), rtol=1e-12
    )


def test_average_models_rejects_mixed_kernels(data, kernel):
    cfg = SgmConfig(partitions=1, batch_size=2, iterations=5, step_schedule=0.1, base_seed=3)
    a = sgm_local(data, cfg, kernel, 0)
    # Another dim, then the same dim at another gamma: there the mode vectors have
    # one length, so only the kernel check stands between the average and a silent risk.
    for problem in (build_problem(dim=21, gamma=1.0, zeta=0.5, noise_sd=0.1),
                    build_problem(dim=20, gamma=0.5, zeta=0.5, noise_sd=0.1)):
        b = Model(np.zeros(problem.dim), spectral_kernel(problem))
        with pytest.raises(KernelMismatchError):
            average_models([a, b])


def test_average_models_needs_a_model():
    with pytest.raises(InvalidParameterError, match="at least one local model"):
        average_models([])


@pytest.mark.parametrize("n", [12, 48])  # below and above dim = 20
def test_predict_expands_in_kernel_sections(small_problem, kernel, n):
    # predict reads the model's modes; this checks them against the replayed coefficients.
    data = sample_dataset(small_problem, n, seed=2)
    cfg = SgmConfig(partitions=1, batch_size=2, iterations=15, step_schedule=0.1, base_seed=8)
    model = sgm_local(data, cfg, kernel, 0)
    alpha, _ = gram_replay(kernel, data, 8, 0, 2, 15, 0.1)
    xs = np.array([0.2, 0.55, 0.9])
    expected = kernel_cross(kernel, xs, data.inputs) @ alpha
    np.testing.assert_allclose(predict(model, xs), expected, rtol=1e-12)


def test_distributed_runs_are_deterministic(small_problem, kernel):
    data = sample_dataset(small_problem, 64, seed=6)
    cfg = SgmConfig(partitions=4, batch_size=1, iterations=16, step_schedule=0.1, base_seed=12)
    a = distributed_sgm(data, cfg, kernel, partition_seed=77)
    b = distributed_sgm(data, cfg, kernel, partition_seed=77)
    xs = np.linspace(0.1, 0.9, 5)
    np.testing.assert_array_equal(predict(a, xs), predict(b, xs))
    spec = FilterSpec("tikhonov", small_problem.kappa_sq, 0.05)
    sa1 = distributed_sa(data, spec, kernel, 4, partition_seed=77)
    sa2 = distributed_sa(data, spec, kernel, 4, partition_seed=77)
    np.testing.assert_array_equal(predict(sa1, xs), predict(sa2, xs))


# ---------------------------------------------------------------------------
# the regime planner


def test_plan_single_pass_tradeoff_worked_example():
    plan = plan_parameters("cor1.1", 1024, 4, zeta=0.5, gamma=1.0)
    assert plan.algorithm == "sgm"
    assert plan.eta == pytest.approx(0.125, rel=1e-15)  # 4/sqrt(1024)
    assert plan.batch_size == 1
    assert plan.iterations == 256  # 1024/4
    assert plan.lam is None
    assert not plan.clamped and not plan.partition_warning


def test_plan_log_batch_variant():
    plan = plan_parameters("cor1.2", 256, 4, zeta=0.5, gamma=1.0)
    assert plan.eta == pytest.approx(1.0 / math.log(256), rel=1e-15)
    assert plan.batch_size == 4  # round(sqrt(256)/4)
    assert plan.iterations == 89  # ceil(16 * ln 256) = ceil(88.72)


def test_plan_capacity_dependent_variants():
    p21 = plan_parameters("cor2.1", 256, 4, zeta=0.5, gamma=1.0)
    assert p21.eta == pytest.approx(1.0 / 64.0, rel=1e-15)
    assert p21.batch_size == 1
    assert p21.iterations == 1024  # 256^(1/2) * 64

    p22 = plan_parameters("cor2.2", 1024, 4, zeta=0.5, gamma=1.0)
    assert p22.eta == pytest.approx(1.0 / 16.0, rel=1e-15)
    assert p22.batch_size == 16
    assert p22.iterations == 512  # 32 * 16

    p23 = plan_parameters("cor2.3", 256, 2, zeta=0.5, gamma=1.0)
    assert p23.eta == pytest.approx(0.125, rel=1e-15)  # 2 * 256^(-1/2)
    assert p23.batch_size == 1
    assert p23.iterations == 128  # 256^(1)/2

    p24 = plan_parameters("cor2.4", 256, 2, zeta=0.5, gamma=1.0)
    assert p24.eta == pytest.approx(1.0 / math.log(256), rel=1e-15)
    assert p24.batch_size == 8  # round(256^(1/2)/2)
    assert p24.iterations == 89


def test_plan_single_machine_variants():
    p31 = plan_parameters("cor3.1", 64, 1, zeta=0.5, gamma=1.0)
    assert p31.eta == pytest.approx(1.0 / 64.0, rel=1e-15)
    assert p31.iterations == 512  # 64^(3/2)

    p32 = plan_parameters("cor3.2", 64, 1, zeta=0.5, gamma=1.0)
    assert p32.eta == pytest.approx(0.125, rel=1e-15)
    assert p32.batch_size == 8
    assert p32.iterations == 64

    p33 = plan_parameters("cor3.3", 64, 1, zeta=0.5, gamma=1.0)
    assert p33.eta == pytest.approx(0.125, rel=1e-15)  # 64^(-1/2)
    assert p33.iterations == 64

    p34 = plan_parameters("cor3.4", 64, 1, zeta=0.5, gamma=1.0)
    assert p34.eta == pytest.approx(1.0 / math.log(64), rel=1e-15)
    assert p34.batch_size == 8
    assert p34.iterations == 34  # ceil(8 * ln 64)


def test_plan_spectral_regimes_set_lambda_only():
    p5 = plan_parameters("cor5", 4096, 8, zeta=0.5, gamma=1.0)
    assert p5.algorithm == "sa"
    assert p5.lam == pytest.approx(0.015625, rel=1e-15)  # 4096^(-1/2)
    assert p5.eta is None and p5.batch_size is None

    p6 = plan_parameters("cor6", 4096, 1, zeta=0.25, gamma=0.25)
    # 2*zeta + gamma = 0.75 < 1, so the exponent saturates at 1.
    assert p6.lam == pytest.approx(1.0 / 4096.0, rel=1e-15)


def test_plan_scale_multiplies_the_leading_constant():
    base = plan_parameters("cor1.1", 256, 2, zeta=0.5, gamma=1.0)
    scaled = plan_parameters("cor1.1", 256, 2, zeta=0.5, gamma=1.0, scale=0.5)
    assert scaled.eta == pytest.approx(0.5 * base.eta, rel=1e-15)
    s5 = plan_parameters("cor5", 256, 1, zeta=0.5, gamma=1.0, scale=0.3)
    assert s5.lam == pytest.approx(0.3 * 0.0625, rel=1e-15)


def test_plan_clamps_steps_to_the_kernel_bound():
    plan = plan_parameters("cor1.1", 256, 8, zeta=0.5, gamma=1.0, kappa_sq=KAPPA_SQ_200)
    assert plan.eta_raw == pytest.approx(0.5, rel=1e-15)
    assert plan.clamped
    assert plan.eta == pytest.approx(0.15061653116554521, rel=1e-15)  # 1/(1.01 kappa^2)


def test_plan_theory_mode_applies_the_log_cap():
    plan = plan_parameters(
        "cor1.1", 256, 1, zeta=0.5, gamma=1.0, kappa_sq=KAPPA_SQ_200, theory_compliant=True
    )
    cap = 1.0 / (4.0 * 1.01 * KAPPA_SQ_200 * math.log(256))
    assert plan.clamped
    assert plan.eta == pytest.approx(cap, rel=1e-15)
    assert plan.eta_raw == pytest.approx(1.0 / 16.0, rel=1e-15)


def test_plan_flags_partition_counts_that_void_averaging():
    # For 2*zeta + gamma = 2 the guarantee needs m <= sqrt(N).
    assert not plan_parameters("cor1.1", 64, 8, zeta=0.5, gamma=1.0).partition_warning
    assert plan_parameters("cor1.1", 64, 16, zeta=0.5, gamma=1.0).partition_warning


def dual_cost(plan):
    """Kernel evaluations of a plan: m T b n_local for SGM, m n_local^3 for KRR."""
    if plan.algorithm == "sgm":
        return plan.partitions * plan.iterations * plan.batch_size * plan.n_local
    return plan.partitions * plan.n_local**3


@pytest.mark.parametrize("zeta, gamma", [(0.5, 1.0), (0.5, 0.5), (1.0, 0.5), (0.3, 0.8),
                                         (0.75, 0.25)])
def test_distributed_sgm_costs_least_at_the_partition_budget(zeta, gamma):
    # A10: the abstract's complexity claim from the plans' counts. At the
    # budget m = N^((s-1)/s), rounded down to a divisor of N below it, distributed SGM
    # (cor2.3) costs N^(1 + (2-gamma)/s), distributed KRR N^(1 + 2/s) and
    # single-machine SGM (cor3.3) N^(1 + (2 zeta + 1)/s). Rounding m down
    # multiplies the first by budget/m and the second by its square.
    s = 2 * zeta + gamma
    for k in range(12, 21, 2):
        n_total = 2**k
        budget = n_total ** ((s - 1) / s)
        m = 2 ** math.floor(math.log2(budget) - 1e-9)
        sgm = plan_parameters("cor2.3", n_total, m, zeta=zeta, gamma=gamma)
        krr = plan_parameters("cor5", n_total, m, zeta=zeta, gamma=gamma)
        plans = [(sgm, 1, 1 + (2 - gamma) / s), (krr, 2, 1 + 2 / s)]
        if n_total ** ((2 * zeta + 1) / s) > MAX_ITERATIONS:
            # Single-machine SGM would take more steps than any run may (N = 2^20 at
            # (0.75, 0.25)), so the planner refuses it.
            with pytest.raises(InvalidParameterError, match="iterations, more than"):
                plan_parameters("cor3.3", n_total, 1, zeta=zeta, gamma=gamma)
        else:
            plans.append((plan_parameters("cor3.3", n_total, 1, zeta=zeta, gamma=gamma), 0,
                          1 + (2 * zeta + 1) / s))
        assert not sgm.partition_warning
        rounding = math.log(budget / m)
        for plan, power, exponent in plans:
            fitted = (math.log(dual_cost(plan)) - power * rounding) / math.log(n_total)
            assert fitted == pytest.approx(exponent, abs=1e-3)
        assert dual_cost(sgm) < min(dual_cost(plan) for plan, _, _ in plans[1:])


def test_plan_enforces_side_conditions():
    with pytest.raises(ConstraintViolationError):
        plan_parameters("cor2.1", 256, 2, zeta=0.2, gamma=0.5)  # 2z+g = 0.9
    with pytest.raises(ConstraintViolationError):
        plan_parameters("cor3.1", 256, 2, zeta=0.5, gamma=1.0)
    with pytest.raises(ConstraintViolationError):
        plan_parameters("cor6", 256, 2, zeta=0.5, gamma=1.0)


def test_plan_rejects_unknown_regimes_and_bad_parameters():
    with pytest.raises(InvalidRegimeError):
        plan_parameters("cor9.9", 256, 2, zeta=0.5, gamma=1.0)
    with pytest.raises(InvalidParameterError):
        plan_parameters("cor1.1", 1, 1, zeta=0.5, gamma=1.0)
    with pytest.raises(InvalidParameterError):
        plan_parameters("cor1.1", 256, 0, zeta=0.5, gamma=1.0)
    with pytest.raises(InvalidParameterError):
        plan_parameters("cor1.1", 256, 2, zeta=0.0, gamma=1.0)
    with pytest.raises(InvalidParameterError):
        plan_parameters("cor1.1", 256, 2, zeta=0.5, gamma=1.5)
    with pytest.raises(InvalidParameterError):
        plan_parameters("cor1.1", 256, 2, zeta=0.5, gamma=1.0, scale=0.0)
    with pytest.raises(InvalidParameterError):
        plan_parameters("cor1.1", 256, 2, zeta=0.5, gamma=1.0, theory_compliant=True)


@pytest.mark.parametrize("scale", [math.nan, math.inf, 10**400, 0.0, -1.0, True,
                                   pytest.param(np.True_, id="np.True_")])
def test_plan_needs_a_positive_finite_scale(scale):
    # NaN would plan eta = NaN unclamped, and inf would run silently at the clamp.
    with pytest.raises(InvalidParameterError, match="scale must be positive and finite"):
        plan_parameters("cor1.1", 256, 2, zeta=0.5, gamma=1.0, scale=scale, kappa_sq=2.0)


def test_plan_to_config_round_trip():
    plan = plan_parameters("cor1.1", 256, 4, zeta=0.5, gamma=1.0, kappa_sq=KAPPA_SQ_200)
    cfg = plan.to_config(base_seed=42)
    assert cfg.partitions == 4
    assert cfg.batch_size == 1
    assert cfg.iterations == plan.iterations
    assert resolve_schedule(cfg.step_schedule, cfg.iterations)[0] == plan.eta
    sa_plan = plan_parameters("cor5", 256, 4, zeta=0.5, gamma=1.0)
    with pytest.raises(InvalidParameterError):
        sa_plan.to_config(base_seed=42)


# Expected values taken from the per-regime planner this one replaced; they pin
# the plans at non-dyadic (zeta, gamma), odd N, 2*zeta + gamma < 1, with and
# without the kappa_sq clamp and the theory cap.
PLAN_GOLDEN = [
    # regime, N, m, zeta, gamma, scale, kappa_sq, theory ->
    #     (batch, iterations, eta, lam, clamped, partition_warning) or the error raised
    ('cor1.1', 1000, 8, 0.3, 0.7, 1.0, None, False, (1, 125, 0.25298221281347033, None, False, True)),
    ('cor1.1', 777, 7, 0.5, 1.0, 1.0, KAPPA_SQ_200, False, (1, 111, 0.15061653116554521, None, True, False)),
    ('cor1.1', 4097, 1, 0.2, 0.5, 2.5, KAPPA_SQ_200, True, (1, 4097, 0.004526819700262642, None, True, False)),
    ('cor1.1', 96, 96, 1.3, 0.2, 1.0, None, False, (1, 1, 9.797958971132713, None, False, True)),
    ('cor1.2', 999, 3, 0.3, 0.7, 1.0, None, False, (11, 219, 0.14478579767901795, None, False, False)),
    ('cor1.2', 1000, 10, 0.1, 0.4, 0.7, KAPPA_SQ_200, True, (3, 219, 0.006987127779920724, None, True, True)),
    ('cor1.2', 999983, 1, 0.9, 0.6, 1.0, KAPPA_SQ_200, False, (1000, 13816, 0.07238250271804335, None, False, False)),
    ('cor2.1', 1000, 8, 0.3, 0.7, 1.0, None, False, (1, 25387, 0.008, None, False, True)),
    ('cor2.1', 777, 7, 1.3, 0.2, 1.0, KAPPA_SQ_200, False, (1, 1196, 0.009009009009009009, None, False, False)),
    ('cor2.1', 6000, 12, 0.7, 0.9, 3.0, KAPPA_SQ_200, True, (1, 21961, 0.003766534413746702, None, True, False)),
    ('cor2.1', 1000, 4, 0.2, 0.5, 1.0, None, False, ConstraintViolationError),
    ('cor2.2', 999, 9, 0.3, 0.7, 1.0, None, False, (11, 2139, 0.0949157995752499, None, False, True)),
    ('cor2.2', 6000, 12, 0.7, 0.9, 1.0, KAPPA_SQ_200, True, (22, 983, 0.005464557941806762, None, True, False)),
    ('cor2.2', 12345, 5, 0.1, 0.85, 0.4, None, False, (50, 391669, 0.008050066098860977, None, False, True)),
    ('cor2.3', 1000, 8, 0.3, 0.7, 1.0, None, False, (1, 616, 0.32997011063210807, None, False, True)),
    ('cor2.3', 999983, 7, 1.3, 1.0, 1.0, None, False, (1, 142855, 0.00032491520759902917, None, False, False)),
    ('cor2.3', 333, 3, 0.1, 0.75, 1.0, KAPPA_SQ_200, True, ConstraintViolationError),
    ('cor2.3', 5000, 50, 0.45, 0.2, 1.0, KAPPA_SQ_200, False, (1, 48996, 0.04704787372775474, None, False, True)),
    ('cor2.4', 1000, 8, 0.3, 0.7, 1.0, None, False, (3, 1403, 0.14476482730108395, None, False, True)),
    ('cor2.4', 12345, 5, 0.9, 0.3, 1.0, KAPPA_SQ_200, False, (643, 837, 0.1061457722617763, None, False, False)),
    ('cor2.4', 4097, 17, 0.6, 0.5, 0.25, KAPPA_SQ_200, True, (21, 1110, 0.005369867894494018, None, True, False)),
    ('cor2.4', 1024, 2, 0.25, 0.5, 1.0, None, False, ConstraintViolationError),
    ('cor3.1', 1000, 1, 0.3, 0.7, 1.0, None, False, (1, 203092, 0.001, None, False, False)),
    ('cor3.1', 999, 1, 0.2, 0.5, 1.0, KAPPA_SQ_200, True, (1, 998001, 0.001001001001001001, None, False, False)),
    ('cor3.1', 1000, 2, 0.3, 0.7, 1.0, None, False, ConstraintViolationError),
    ('cor3.2', 777, 1, 0.3, 0.7, 1.0, KAPPA_SQ_200, False, (28, 4663, 0.03587480016670876, None, False, False)),
    ('cor3.2', 1000, 1, 0.1, 0.2, 2.0, None, False, (32, 31623, 0.06324555320336758, None, False, False)),
    ('cor3.2', 3000, 1, 1.1, 0.6, 1.0, KAPPA_SQ_200, True, (55, 956, 0.005486734818341286, None, True, False)),
    ('cor3.3', 1000, 1, 0.3, 0.7, 1.0, None, False, (1, 4924, 0.041246263829013495, None, False, False)),
    ('cor3.3', 999983, 1, 1.3, 1.0, 1.0, None, False, (1, 999983, 4.6416458228432674e-05, None, False, False)),
    ('cor3.3', 4097, 1, 0.2, 0.3, 1.0, KAPPA_SQ_200, True, (1, 114144, 0.0032334421711310906, None, True, False)),
    ('cor3.4', 1000, 1, 0.3, 0.7, 1.0, None, False, (24, 1403, 0.14476482730108395, None, False, False)),
    ('cor3.4', 2048, 1, 0.5, 1.0, 1.0, KAPPA_SQ_200, False, (45, 346, 0.1311540946262694, None, False, False)),
    ('cor3.4', 999, 1, 0.1, 0.4, 1.0, None, False, (4, 6900, 0.14478579767901795, None, False, False)),
    ('cor3.4', 50, 5, 0.5, 1.0, 1.0, None, False, ConstraintViolationError),
    ('cor5', 1000, 8, 0.3, 0.7, 1.0, None, False, (None, None, None, 0.004923882631706734, False, True)),
    ('cor5', 999983, 7, 1.3, 0.2, 0.3, KAPPA_SQ_200, False, (None, None, None, 0.0021590701277151487, False, False)),
    ('cor5', 777, 7, 0.2, 0.3, 1.0, None, False, (None, None, None, 7.427234156104735e-05, False, True)),
    ('cor6', 1000, 1, 0.3, 0.7, 0.3, None, False, (None, None, None, 0.0014771647895120202, False, False)),
    ('cor6', 999, 1, 0.2, 0.5, 1.0, KAPPA_SQ_200, True, (None, None, None, 0.001001001001001001, False, False)),
    ('cor6', 1000, 4, 0.3, 0.7, 1.0, None, False, ConstraintViolationError),
    ('cor4', 1000, 1, 0.3, 0.7, 1.0, None, False, InvalidRegimeError),
    ('cor2.5', 1000, 1, 0.3, 0.7, 1.0, None, False, InvalidRegimeError),
]


@pytest.mark.parametrize(
    "regime, n_total, m, zeta, gamma, scale, kappa_sq, theory, expected", PLAN_GOLDEN
)
def test_plan_matches_the_golden_grid(regime, n_total, m, zeta, gamma, scale, kappa_sq, theory,
                                      expected):
    def plan():
        return plan_parameters(regime, n_total, m, zeta, gamma, scale,
                               kappa_sq=kappa_sq, theory_compliant=theory)

    if isinstance(expected, type):
        with pytest.raises(expected) as info:
            plan()
        assert type(info.value) is expected
        return
    got = plan()
    batch, iterations, eta, lam, clamped, warning = expected
    assert (got.batch_size, got.iterations, got.clamped, got.partition_warning) == (
        batch, iterations, clamped, warning)
    for value, want in ((got.eta, eta), (got.lam, lam)):
        assert value is None if want is None else value == pytest.approx(want, rel=1e-14, abs=0)


# ---------------------------------------------------------------------------
# the step-size summability condition


def brute_force_window_sum(etas: np.ndarray, t: int) -> float:
    """Literal triple sum: (1/eta_t) sum_{k=1}^{t-1} [1/(k(k+1))] sum_{i=t-k}^{t-1} eta_i^2."""
    total = 0.0
    for k in range(1, t):
        inner = sum(etas[i - 1] ** 2 for i in range(t - k, t))
        total += inner / (k * (k + 1))
    return total / etas[t - 1]


def test_step_condition_matches_brute_force_on_random_schedules():
    rng = np.random.default_rng(6)
    ksq = 2.5
    for _ in range(3):
        t_max = int(rng.integers(5, 40))
        etas = rng.uniform(0.01, 1.0 / ksq, size=t_max)
        report = check_step_condition(etas, t_max, ksq)
        worst = max(brute_force_window_sum(etas, t) for t in range(2, t_max + 1))
        assert report.worst_ratio == pytest.approx(worst * 4.0 * ksq, rel=1e-10)
        assert report.passed == (worst <= 1.0 / (4.0 * ksq))


def test_step_condition_frozen_constant_schedules():
    ksq = KAPPA_SQ_200
    t = 100
    ok = check_step_condition(1.0 / (4.0 * ksq * math.log(t)), t, ksq)
    assert ok.passed
    assert ok.worst_ratio == pytest.approx(0.9092774747783112, rel=1e-12)
    assert ok.worst_t == t
    hot = check_step_condition(1.0 / ksq, t, ksq)
    assert not hot.passed
    assert hot.worst_ratio == pytest.approx(16.749510070558483, rel=1e-12)


@pytest.mark.parametrize("schedule, kappa_sq, message", [
    (0.1, 0.0, "kappa_sq must be positive"),
    (0.1, -2.5, "kappa_sq must be positive"),
    ((0.1, 0.0, 0.1), 2.5, "defined for positive steps"),
])
def test_step_condition_rejects_a_nonpositive_bound_or_step(schedule, kappa_sq, message):
    with pytest.raises(InvalidParameterError, match=message):
        check_step_condition(schedule, 3, kappa_sq)


@pytest.mark.parametrize("kappa_sq", [0.0, -1.0, math.inf, math.nan, True])
@pytest.mark.parametrize("call", [
    lambda ksq: FilterSpec("landweber", ksq, 10.0, (0.1,)),
    lambda ksq: filter_from_tag("landweber", ksq, 0.1),
    lambda ksq: check_step_bound([0.1], ksq),
    lambda ksq: trainers.theory_step_cap(ksq, 10),
    lambda ksq: plan_parameters("cor1.1", 256, 2, 0.5, 1.0, kappa_sq=ksq),
    lambda ksq: check_step_condition(0.1, 5, ksq),
], ids=["FilterSpec", "filter_from_tag", "check_step_bound", "theory_step_cap",
        "plan_parameters", "check_step_condition"])
def test_every_use_of_the_kernel_bound_needs_it_positive_and_finite(call, kappa_sq):
    with pytest.raises(InvalidParameterError, match="kappa_sq must be positive and finite"):
        call(kappa_sq)


@pytest.mark.parametrize("iterations, message", [
    (0, "iterations must be >= 1"),
    (-3, "iterations must be >= 1"),
    (2.5, "iterations must be an integer"),
    (True, "iterations must be an integer"),
])
def test_theory_step_cap_needs_a_whole_iteration_count(iterations, message):
    with pytest.raises(InvalidParameterError, match=message):
        trainers.theory_step_cap(1.0, iterations)


def test_step_condition_for_one_iteration_reports_the_empty_window_loop():
    assert check_step_condition(0.1, 1, 2.5) == StepConditionReport(
        passed=True, worst_ratio=0.0, worst_t=1, threshold=0.1, iterations=1)


def test_step_condition_single_iteration_passes_vacuously():
    report = check_step_condition(0.1, 1, 2.5)
    assert report.passed
    assert report.worst_ratio == 0.0
