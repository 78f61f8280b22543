"""The benchmark's tracer still finds every kdc name it wraps.

``benchmarks/tracing.py`` patches kdc functions, methods and properties by
name, so renaming or removing one of them breaks ``bench.py --trace 1``.
A small traced sweep here fails first when that happens.
"""
from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import tracing  # noqa: E402

from kdc import harness  # noqa: E402
from kdc.harness import ExperimentConfig  # noqa: E402


def test_traced_sweep_runs_and_restores_the_harness():
    run_point = harness._run_point
    cfg = ExperimentConfig(regime="cor1.1", n_list=(32, 64), dim=20, noise_sd=0.1)
    tracer = tracing.Tracer()
    with tracer:
        records = harness.run_experiment(cfg, workers=1)
    assert [r.error for r in records] == ["", ""]
    assert tracer.metrics()["harness.tasks"] == 2
    assert harness._run_point is run_point
