from __future__ import annotations

import ast
from pathlib import Path

import numpy as np

from kdc import (
    SgmConfig, build_problem, derive_seed, distributed_sgm, excess_risk_mc, partition_data,
    partition_stream_seed, sample_dataset, spectral_kernel, splitmix64,
)
from kdc.seeding import make_rng

SRC = Path(__file__).resolve().parents[1] / "src" / "kdc"

MASK64 = (1 << 64) - 1


def test_splitmix64_reference_vectors():
    # First two outputs of the reference splitmix64 stream seeded at 0.
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(1) == 0x910A2DEC89025CC1


def test_splitmix64_stays_in_64_bits():
    for x in (0, 1, 2**63, MASK64, 123456789):
        out = splitmix64(x)
        assert 0 <= out <= MASK64


def test_derive_seed_is_deterministic_and_order_sensitive():
    a = derive_seed(42, 1, 2, 3)
    assert a == derive_seed(42, 1, 2, 3)
    assert a != derive_seed(42, 3, 2, 1)
    assert a != derive_seed(43, 1, 2, 3)
    assert 0 <= a <= MASK64


def test_derive_seed_distinguishes_tag_positions():
    # (0x1D, 5) and (5, 0x1D) must land on different streams.
    assert derive_seed(9, 0x1D, 5) != derive_seed(9, 5, 0x1D)


def test_partition_stream_seeds_are_distinct_across_partitions():
    base = 20260822
    seeds = [partition_stream_seed(base, i) for i in range(64)]
    assert len(set(seeds)) == 64
    assert seeds == [partition_stream_seed(base, i) for i in range(64)]


def test_seed_streams_feed_numpy_generators_independently():
    s0 = partition_stream_seed(5, 0)
    s1 = partition_stream_seed(5, 1)
    draw0 = np.random.default_rng(s0).integers(0, 1000, size=32)
    draw1 = np.random.default_rng(s1).integers(0, 1000, size=32)
    assert not np.array_equal(draw0, draw1)
    # Re-seeding reproduces the stream exactly.
    assert np.array_equal(draw0, np.random.default_rng(s0).integers(0, 1000, size=32))


def test_every_generator_is_built_in_the_seeding_module():
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and "default_rng" in (
            getattr(node.func, "attr", None), getattr(node.func, "id", None))
    ]
    assert calls and all(c.startswith("seeding.py:") for c in calls), calls


def test_generator_seeds_fold_into_64_bits_like_derived_seeds():
    assert np.array_equal(make_rng(5).random(4), np.random.default_rng(5).random(4))
    assert np.array_equal(make_rng(MASK64 + 6).random(4), make_rng(5).random(4))
    problem = build_problem(dim=10, noise_sd=0.1)
    folded, negative = sample_dataset(problem, 8, MASK64), sample_dataset(problem, 8, -1)
    assert np.array_equal(folded.labels, negative.labels)
    for a, b in zip(partition_data(folded, 2, MASK64), partition_data(folded, 2, -1)):
        assert np.array_equal(a.inputs, b.inputs)
    config = SgmConfig(partitions=2, batch_size=1, iterations=5, step_schedule=0.1, base_seed=-1)
    model = distributed_sgm(negative, config, spectral_kernel(problem), partition_seed=-1)
    assert excess_risk_mc(model, problem, 100, -1) == excess_risk_mc(model, problem, 100, MASK64)
