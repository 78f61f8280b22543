"""Traced peak allocations of the problem build and the distributed trainers.

tracemalloc sees numpy's buffers, so a trainer that copies the sample's
N x dim feature matrix, a filter fit that scales its own copy of it, a
kappa_sq grid evaluated in one piece, or a basis built through an N x dim
scratch array shows up here as megabytes. The bounds hold at dim 200 and
N = 8192, where one feature matrix is 13 MB.
"""
from __future__ import annotations

import tracemalloc

import pytest

from kdc import (
    SgmConfig,
    basis_matrix,
    build_problem,
    decompose_error,
    distributed_sa,
    distributed_sgm,
    filter_from_tag,
    sa_local,
    sample_dataset,
    spectral_kernel,
)
from kdc import spectral_model
from kdc.filters import FILTER_TAGS
from kdc.trainers import SETTLE

PEAK_LIMIT_BYTES = 4_000_000


def traced_peak(call) -> int:
    """Peak bytes allocated by ``call`` above what was allocated when it started."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def sample(default_problem):
    return sample_dataset(default_problem, 8192, seed=1)


def test_building_a_problem_evaluates_kappa_sq_in_small_blocks():
    spectral_model._kappa_sq.cache_clear()
    assert traced_peak(lambda: build_problem(dim=200, gamma=0.5)) < PEAK_LIMIT_BYTES


def test_basis_matrix_needs_little_beyond_its_output(sample):
    output_bytes = sample.features.nbytes
    peak = traced_peak(lambda: basis_matrix(200, sample.inputs))
    assert peak <= output_bytes + (1 << 20), (peak, output_bytes)


def test_distributed_sgm_copies_no_feature_matrix(default_problem, sample):
    # Several blocks of SETTLE steps and a partial one.
    cfg = SgmConfig(partitions=32, batch_size=16, iterations=4 * SETTLE + 3,
                    step_schedule=0.5 / default_problem.kappa_sq, base_seed=3)
    kernel = spectral_kernel(default_problem)
    assert traced_peak(lambda: distributed_sgm(sample, cfg, kernel, 4)) < PEAK_LIMIT_BYTES


@pytest.mark.parametrize("tag", FILTER_TAGS)
@pytest.mark.parametrize("partitions", [32, 1])  # at 1, n = 8192 is fitted in place
def test_distributed_sa_copies_no_feature_matrix(default_problem, sample, partitions, tag):
    spec = filter_from_tag(tag, default_problem.kappa_sq, 0.05)
    kernel = spectral_kernel(default_problem)
    peak = traced_peak(lambda: distributed_sa(sample, spec, kernel, partitions, 4))
    assert peak < PEAK_LIMIT_BYTES


@pytest.mark.parametrize("tag", FILTER_TAGS)
def test_sa_local_scales_no_copy_of_the_features(default_problem, sample, tag):
    spec = filter_from_tag(tag, default_problem.kappa_sq, 0.05)
    kernel = spectral_kernel(default_problem)
    assert traced_peak(lambda: sa_local(sample, spec, kernel)) < PEAK_LIMIT_BYTES


def test_one_partition_sgm_copies_no_feature_matrix(default_problem, sample):
    cfg = SgmConfig(partitions=1, batch_size=16, iterations=4 * SETTLE + 3,
                    step_schedule=0.5 / default_problem.kappa_sq, base_seed=3)
    kernel = spectral_kernel(default_problem)
    assert traced_peak(lambda: distributed_sgm(sample, cfg, kernel, 4)) < PEAK_LIMIT_BYTES


def test_decompose_error_holds_one_sample_at_a_time(default_problem):
    # Phi of one sample (6.55 MB here) is all that is held while the next is drawn.
    cfg = SgmConfig(partitions=1, batch_size=1, iterations=8,
                    step_schedule=0.5 / default_problem.kappa_sq, base_seed=3)
    phi_bytes = 4096 * default_problem.dim * 8
    peak = traced_peak(lambda: decompose_error(default_problem, 4096, cfg, (50, 20)))
    assert peak < phi_bytes + PEAK_LIMIT_BYTES, peak
