"""Tests of the benchmark's own machinery.

Run from the root of a checkout: ``python3 -m pytest benchmarks/test_bench.py``.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import kdc  # noqa: E402
from kdc import evaluation, filters, harness, kernels, spectral_model, trainers  # noqa: E402

import bench  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_tracer_patches_every_binding_and_restores_it():
    bound = [
        (trainers, "gram"), (evaluation, "gram"), (kernels, "gram"), (kdc, "gram"),
        (evaluation, "sgm_local"), (trainers, "sgm_local"), (kdc, "sgm_local"),
        (filters, "sym_eigendecompose"), (evaluation, "basis_matrix"),
        (kernels, "basis_matrix"), (evaluation, "mode_projection"),
        (harness, "_run_point"), (harness, "problem_to_json"),
    ]
    before = {(m.__name__, n): getattr(m, n) for m, n in bound}
    key, problem_id = kernels.KernelSpec.key, spectral_model.SpectralProblem.problem_id
    with tracing.Tracer():
        for m, n in bound:
            assert getattr(m, n) is not before[(m.__name__, n)], f"{m.__name__}.{n}"
        assert kernels.KernelSpec.key is not key
        assert spectral_model.SpectralProblem.problem_id is not problem_id
        # problem_id serializes through this binding; it must stay untraced.
        assert spectral_model.problem_to_json is before[("kdc.harness", "problem_to_json")]
    for m, n in bound:
        assert getattr(m, n) is before[(m.__name__, n)]
    assert kernels.KernelSpec.key is key
    assert spectral_model.SpectralProblem.problem_id is problem_id


def test_self_times_add_up_to_the_root_span_under_recursion():
    problem = kdc.build_problem(dim=20, noise_sd=0.1)
    data = kdc.sample_dataset(problem, 64, seed=0)
    cfg = kdc.SgmConfig(partitions=4, batch_size=1, iterations=16,
                        step_schedule=kdc.Constant(0.1), base_seed=1)
    model = kdc.distributed_sgm(data, cfg, kdc.spectral_kernel(problem), partition_seed=2)
    tracer = tracing.Tracer()
    start = time.perf_counter()
    with tracer:
        kdc.excess_risk_exact(model, problem)
    wall = time.perf_counter() - start

    metrics = tracer.metrics()
    assert metrics["evaluation.projection_calls"] == 5  # the average and its 4 locals
    (root,) = [s for s in tracer.spans if s[4] == -1]
    total_self = sum(tracer.self_s.values())
    assert abs(total_self - (root[3] - root[2])) < 1e-9
    assert total_self <= wall


def test_counts_repeat_exactly_between_runs():
    counts = []
    for _ in range(2):
        workload = workloads.make("single_machine", seed=0, nproc=1)
        tracer = tracing.Tracer()
        with tracer:
            workload.run(workers=1)
        m = tracer.metrics()
        counts.append({k: m[k] for k in [*tracing.count_metrics(), "trace.spans"]})
    assert counts[0] == counts[1]
    n = spec.SINGLE_N
    assert counts[0]["harness.tasks"] == len(spec.SINGLE_POINTS)
    assert counts[0]["kernels.gram_entries"] == 2 * n * n  # one Gram per point
    assert counts[0]["kernels.eig_n3"] == n**3  # the Tikhonov point only
    assert counts[0]["trainers.sgm_calls"] == 1


def test_reference_mismatch_counts_as_a_failed_operation():
    ref = bench.load_reference(0, "single_machine")
    ops = [{**exp, "error": "", "values": dict(ref[exp["key"]])}
           for exp in spec.expected_ops("single_machine")]
    assert bench.check_passes([{"ops": ops}], ref, "single_machine") == (2, 0, 0.0)

    ops[1]["values"]["risk_mean"] *= 1 + 1e-7
    attempted, failed, dev = bench.check_passes([{"ops": ops}], ref, "single_machine")
    assert (attempted, failed) == (2, 1) and dev > bench.REL_TOL

    ops[0]["error"] = "DivergenceError: boom"
    assert bench.check_passes([{"ops": ops}, {"ops": []}], None, "single_machine")[:2] == (4, 3)


def test_benchmark_json_lists_every_metric_printed():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(bench.END_TO_END)
    rounds = [{"trace": tracing.Tracer().metrics(), "primary": {"wall_s": 1.0},
               "traced": {"wall_s": 1.0}}]
    metrics, repeat = bench.per_layer(rounds, 0.0)
    assert repeat
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == [
        (k, bench.per_layer_unit(k)) for k in metrics]
    assert [w["name"] for w in doc["workloads"]] == list(spec.WORKLOADS)
