from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

from kdc import (
    InvalidParameterError, SgmConfig, build_problem, derive_seed, distributed_sgm, partition_data,
    partition_stream_seed, sample_dataset, spectral_kernel, splitmix64,
)
from kdc.seeding import make_rng
from oracles import excess_risk_mc

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


def test_derived_seeds_of_python_ints_are_pinned():
    assert derive_seed(42, 1, 2, 3) == 0x64A0C8A842E4F6B4
    assert derive_seed(2**64 + 42, 1, 2, 3) == 0x64A0C8A842E4F6B4
    assert derive_seed(-1, 0xD1, -5) == 0xB158ACF7C3B166FA
    assert partition_stream_seed(5, 1) == 0x910A2DEC89025CC4
    assert partition_stream_seed(-3, 2**64 + 7) == 0x9C341E1BA6CDF22A


@pytest.mark.parametrize("call, name", [
    (lambda: derive_seed(np.int64(5), 3), "base_seed"),
    (lambda: derive_seed(1.5, 3), "base_seed"),
    (lambda: derive_seed(True, 3), "base_seed"),
    (lambda: derive_seed(5, 3, np.int64(1)), "seed part"),
    (lambda: derive_seed(5, 2.0), "seed part"),
    (lambda: derive_seed(5, False), "seed part"),
    (lambda: partition_stream_seed(5, np.int64(1)), "partition_index"),
    (lambda: partition_stream_seed(2.0, 1), "base_seed"),
    (lambda: partition_stream_seed(True, 1), "base_seed"),
    (lambda: partition_stream_seed(5, True), "partition_index"),
    (lambda: splitmix64(np.int64(5)), "value"),
    (lambda: splitmix64(1.5), "value"),
    (lambda: splitmix64(True), "value"),
], ids=["derive-numpy-base", "derive-float-base", "derive-bool-base", "derive-numpy-part",
        "derive-float-part", "derive-bool-part", "partition-numpy-index",
        "partition-float-base", "partition-bool-base", "partition-bool-index",
        "splitmix-numpy-value", "splitmix-float-value", "splitmix-bool-value"])
def test_seed_derivation_follows_the_integer_rule(call, name):
    with pytest.raises(InvalidParameterError, match=f"{name} must be an integer"):
        call()


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
