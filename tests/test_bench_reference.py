"""The benchmark's workloads still reproduce its reference outputs.

``benchmarks/bench.py`` checks every operation of a pass against
``benchmarks/reference.json`` to a relative ``bench.REL_TOL``. The same
check runs here on one pass in one process, so a change that moves an
output fails in the test suite before the benchmark sees it. The
benchmark's modules are only imported.
"""
from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import bench  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name, seed", [
    ("rate_sweep", 0), ("rate_sweep", 1), ("single_machine", 0), ("single_machine", 1)])
def test_a_workload_pass_matches_the_benchmark_reference(name, seed):
    reference = bench.load_reference(seed, name)
    one_pass = workloads.make(name, seed, nproc=1).run(workers=1)
    attempted, failed, max_dev = bench.check_passes([one_pass], reference, name)
    assert (attempted, failed) == (len(reference), 0), max_dev
