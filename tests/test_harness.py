from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from kdc import (
    DivergenceError,
    InvalidParameterError,
    InvalidRegimeError,
    build_problem,
    derive_seed,
    emit_rate_table,
    records_from_csv,
    records_to_csv,
)
from kdc import harness, spectral_model
from kdc.filters import CLAMP_SAFETY, filter_from_tag
from kdc.harness import CSV_COLUMNS, ExperimentConfig, resolve_m, run_experiment
from kdc.seeding import TAG_DATA
from kdc.trainers import plan_parameters, theory_step_cap

GOLDEN_HEADER = (
    "version,algorithm,regime,n_total,m_requested,m,n_local,partition_warning,batch_size,"
    "iterations,"
    "eta,eta_raw,lam,scale,filter,replications,base_seed,data_seed_first,risk_mean,risk_se,"
    "wall_ms,error"
)


def tiny_config(**overrides):
    base = dict(
        regime="cor1.1",
        n_list=[16, 32],
        dim=20,
        noise_sd=0.1,
        m_rule=2,
        replications=2,
        base_seed=3,
    )
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


# ---------------------------------------------------------------------------
# partition-count rules


def test_resolve_m_power_rule_decrements_to_a_divisor():
    # floor(256^0.4) = 9, largest divisor of 256 below that is 8.
    assert resolve_m(256, "pow:0.4") == (9, 8)
    assert resolve_m(1024, "pow:0.4") == (16, 16)
    assert resolve_m(4096, "pow:0.4") == (27, 16)


def test_resolve_m_fixed_rule():
    assert resolve_m(30, 4) == (4, 3)
    assert resolve_m(30, 5) == (5, 5)
    assert resolve_m(30, 1) == (1, 1)
    assert resolve_m(30, "pow:0") == (1, 1)


def divisor_walk(n_total, requested):
    """The rule as first written: step down one at a time to a divisor of N."""
    m = requested
    while n_total % m:
        m -= 1
    return m


@pytest.mark.parametrize("n_total", [2, 3, 12, 97, 360, 1024, 7919, 8191, 65521, 2**24])
def test_resolve_m_finds_the_largest_divisor_the_walk_finds(n_total):
    # Primes resolve to m = 1 whatever they ask; powers of two to the power at or below.
    rules = [1, 2, 7, 64, 1000, "pow:0", "pow:0.3", "pow:0.4", "pow:0.5", "pow:0.7"]
    if n_total < 2**20:
        rules += [n_total - 1, n_total, "pow:0.99"]
    for rule in rules:
        requested, m = resolve_m(n_total, rule)
        assert m == divisor_walk(n_total, requested), (n_total, rule)


def test_resolve_m_rejects_a_sample_outside_its_range_at_once():
    with pytest.raises(InvalidParameterError, match="n_total must be <= 16777216"):
        resolve_m(2**61 - 1, "pow:0.5")
    with pytest.raises(InvalidParameterError, match="n_total must be <= 16777216"):
        resolve_m(2**24 + 1, 1)
    with pytest.raises(InvalidParameterError, match="n_total must be >= 1"):
        resolve_m(0, "pow:0.5")


def test_a_sample_size_that_cannot_be_resolved_is_a_row_error():
    rows = run_experiment(tiny_config(n_list=[1024, 2**61 - 1], replications=1))
    alone = run_experiment(tiny_config(n_list=[1024], replications=1))
    assert dataclasses.replace(rows[0], wall_ms=0.0) == dataclasses.replace(alone[0], wall_ms=0.0)
    assert rows[1].error == "InvalidParameterError: n_total must be <= 16777216"
    assert (rows[1].m_requested, rows[1].m, rows[1].n_local, rows[1].iterations) == (None,) * 4
    assert math.isnan(rows[1].risk_mean)


def test_resolve_m_rejects_nonsense():
    with pytest.raises(InvalidParameterError):
        resolve_m(30, 0)
    with pytest.raises(InvalidParameterError):
        resolve_m(30, "pow:-0.5")
    with pytest.raises(InvalidParameterError):
        resolve_m(30, "half")
    # A fixed rule follows the integer rule.
    for rule in (2.7, True, None):
        with pytest.raises(InvalidParameterError, match="m_rule must be an integer"):
            resolve_m(16, rule)
    with pytest.raises(InvalidParameterError):
        ExperimentConfig(regime="cor1.1", n_list=(16,), m_rule="pow:x")


# ---------------------------------------------------------------------------
# configuration


def test_config_from_dict_defaults_and_aliases():
    cfg = ExperimentConfig.from_dict(
        {"regime": "cor5", "n_list": [64], "algorithm": "sa", "filter": "cutoff", "junk": 1}
    )
    assert cfg.filter == "cutoff"
    assert cfg.dim == 200
    assert cfg.replications == 1


def test_filter_tag_is_an_unknown_config_key():
    # ``filter`` is the one key; ``filter_tag`` is ignored like any other unknown key.
    cfg = ExperimentConfig.from_dict(
        {"regime": "cor5", "n_list": [64], "algorithm": "sa", "filter_tag": "cutoff"})
    assert cfg.filter == "tikhonov"


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        ExperimentConfig.from_dict({"n_list": [64]})
    with pytest.raises(InvalidParameterError):
        ExperimentConfig.from_dict({"regime": "cor1.1"})
    with pytest.raises(InvalidRegimeError):
        ExperimentConfig.from_dict({"regime": "corX", "n_list": [64]})
    with pytest.raises(InvalidParameterError):
        tiny_config(n_list=[32, 16])
    with pytest.raises(InvalidParameterError):
        tiny_config(algorithm="boosting")
    with pytest.raises(InvalidParameterError):
        tiny_config(filter="ridge", algorithm="sa", regime="cor5")
    with pytest.raises(InvalidRegimeError):
        tiny_config(algorithm="sa")  # cor1.1 is a gradient regime
    with pytest.raises(InvalidParameterError):
        tiny_config(replications=0)
    with pytest.raises(InvalidParameterError):
        tiny_config(scale=-1.0)


def test_config_bounds_its_replication_count():
    # Only the configs are built: a sweep lists every task before it runs one.
    assert tiny_config(replications=harness.MAX_REPLICATIONS).replications == 2**16
    for reps in (harness.MAX_REPLICATIONS + 1, 10**12):
        with pytest.raises(InvalidParameterError, match=r"replications must lie in \[1, 65536\]"):
            tiny_config(replications=reps)


def test_config_needs_a_sample_size_and_runs_need_a_worker():
    with pytest.raises(InvalidParameterError, match="n_list must be nonempty"):
        tiny_config(n_list=[])
    with pytest.raises(InvalidParameterError, match=r"workers must be >= 1 \(or 0 for auto\)"):
        run_experiment(tiny_config(), workers=-1)


@pytest.mark.parametrize("workers", [2.5, "2", np.int64(2), True, None])
def test_workers_follow_the_integer_rule(workers):
    with pytest.raises(InvalidParameterError, match="workers must be an integer"):
        run_experiment(tiny_config(), workers=workers)


@pytest.mark.parametrize("key, value", [
    ("replications", "two"), ("gamma", "1"), ("base_seed", "7"), ("theory_compliant", "yes"),
    ("n_list", ["16"]), ("dim", 20.0), ("scale", True), ("m_rule", 1.5), ("out_path", 3),
    ("scale", math.inf), ("gamma", math.nan), ("noise_sd", -math.inf),
    pytest.param("source_norm", 10**400, id="source_norm-400-digits"),
    pytest.param("zeta", -10**400, id="zeta-400-digits"),
])
def test_config_rejects_values_of_the_wrong_type(key, value):
    # A value of the wrong type is an InvalidParameterError, never a TypeError or a coercion.
    raw = {"regime": "cor1.1", "n_list": [16], "dim": 20, key: value}
    with pytest.raises(InvalidParameterError, match=repr(key)):
        run_experiment(ExperimentConfig.from_dict(raw))


def test_theory_compliant_sweeps_run_at_the_log_cap():
    cfg = ExperimentConfig(regime="cor1.1", n_list=(64, 128), dim=20, m_rule=2,
                           theory_compliant=True)
    records = run_experiment(cfg)
    ksq = build_problem(dim=20).kappa_sq
    for rec in records:
        assert rec.error == ""
        assert rec.eta == theory_step_cap(CLAMP_SAFETY * ksq, rec.iterations)
        assert rec.eta < rec.eta_raw  # a clamped step shows in its record
    assert [rec.eta for rec in records] == pytest.approx([0.016561418094, 0.013801181745], rel=1e-10)


# ---------------------------------------------------------------------------
# record serialization


def test_records_csv_golden_header_and_round_trip():
    records = run_experiment(tiny_config())
    text = records_to_csv(records)
    assert text.splitlines()[0] == GOLDEN_HEADER
    assert tuple(GOLDEN_HEADER.split(",")) == CSV_COLUMNS
    clone = records_from_csv(text)
    assert clone == records


def test_records_csv_rejects_foreign_headers():
    with pytest.raises(InvalidParameterError):
        records_from_csv("a,b,c\n1,2,3\n")


@pytest.mark.parametrize("column,text,kind", [
    ("risk_mean", "abc", "float"), ("partition_warning", "yes", "bool"),
    ("partition_warning", "1", "bool"),
])
def test_records_csv_names_the_line_and_column_of_a_bad_cell(column, text, kind):
    lines = records_to_csv(run_experiment(tiny_config())).splitlines()
    cells = lines[2].split(",")
    cells[CSV_COLUMNS.index(column)] = text
    lines[2] = ",".join(cells)
    with pytest.raises(InvalidParameterError,
                       match=f"line 3, column {column}: cannot read '{text}' as {kind}"):
        records_from_csv("\n".join(lines))


@pytest.mark.parametrize("algorithm,regime", [("sgm", "cor1.1"), ("sa", "cor5")])
def test_records_carry_the_plans_partition_warning_through_csv(algorithm, regime):
    # At 2 zeta + gamma = 2 the budget is sqrt(N): m = 8 passes it at N = 16, not at 64.
    records = run_experiment(tiny_config(algorithm=algorithm, regime=regime, n_list=[16, 64],
                                         m_rule=8, replications=1))
    assert [r.partition_warning for r in records] == [True, False]
    for rec in records:
        plan = plan_parameters(regime, rec.n_total, rec.m, 0.5, 1.0)
        assert rec.partition_warning == plan.partition_warning
    assert records_from_csv(records_to_csv(records)) == records


def test_records_csv_names_the_line_of_a_row_with_the_wrong_field_count():
    lines = records_to_csv(run_experiment(tiny_config())).splitlines()
    lines[2] += ",extra"
    with pytest.raises(InvalidParameterError, match="malformed records CSV row at line 3"):
        records_from_csv("\n".join(lines))


# ---------------------------------------------------------------------------
# running experiments


# A Landweber point sends its step array to the pool's workers; at m = 1 the
# trainers fit the sample in place.
@pytest.mark.parametrize("overrides", [
    {},
    {"algorithm": "sa", "regime": "cor5", "filter": "landweber"},
    {"algorithm": "sa", "regime": "cor6", "m_rule": 1},
    {"regime": "cor3.4", "m_rule": 1},
], ids=["sgm", "landweber", "sa_m1", "sgm_m1"])
def test_run_experiment_is_reproducible_and_parallel_consistent(overrides):
    cfg = tiny_config(**overrides)
    serial = run_experiment(cfg, workers=1)
    again = run_experiment(cfg, workers=1)
    parallel = run_experiment(cfg, workers=2)
    def strip(recs):
        rows = []
        for rec in recs:
            payload = dataclasses.asdict(rec)
            payload.pop("wall_ms")
            rows.append(tuple(payload.items()))
        return rows

    assert strip(serial) == strip(again) == strip(parallel)
    assert [rec.error for rec in serial] == ["", ""]


def test_the_blas_thread_count_is_set_only_where_numpy_ships_its_openblas():
    controls = harness._openblas_threads()
    previous = harness._set_blas_threads(1)
    try:
        if controls is None:
            assert previous is None  # nothing to set, and nothing was set
        else:
            assert previous >= 1 and controls[0]() == 1
    finally:
        if previous is not None:
            harness._set_blas_threads(previous)


def test_tasks_run_on_one_blas_thread_and_a_serial_sweep_restores_the_count(monkeypatch):
    controls = harness._openblas_threads()
    if controls is None:
        pytest.skip("this numpy ships no scipy-openblas thread controls")
    get = controls[0]
    seen = []
    run_point = harness._run_point
    monkeypatch.setattr(harness, "_run_point",
                        lambda *task: seen.append(get()) or run_point(*task))
    before = harness._set_blas_threads(2)
    try:
        serial = run_experiment(tiny_config(), workers=1)
        assert seen == [1] * 4 and get() == 2
        harness._init_worker(harness.problem_to_json(build_problem(dim=20, noise_sd=0.1)))
        assert get() == 1
    finally:
        harness._set_blas_threads(before)
    # Where the controls are missing nothing is set, and the records are the same.
    monkeypatch.setattr(harness, "_openblas_threads", lambda: None)
    assert harness._set_blas_threads(1) is None
    bare = run_experiment(tiny_config(), workers=1)
    assert [r.risk_mean for r in bare] == [r.risk_mean for r in serial]


@pytest.mark.parametrize("affinity", [True, False])
def test_auto_workers_count_the_cpus_this_process_may_use(monkeypatch, affinity):
    sizes = []

    class SerialPool:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 64)
    if affinity:
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    else:
        monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
    auto = run_experiment(tiny_config(), workers=0)
    assert [r.risk_mean for r in auto] == [r.risk_mean for r in run_experiment(tiny_config())]
    assert sizes == [3 if affinity else 64]


def test_a_serial_sweep_serializes_its_problem_only_for_its_id(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a serial sweep has no process boundary to cross")

    monkeypatch.setattr(harness, "problem_to_json", forbidden)
    monkeypatch.setattr(harness, "problem_from_json", forbidden)
    calls = []
    real = spectral_model.problem_to_json
    monkeypatch.setattr(spectral_model, "problem_to_json", lambda p: calls.append(p) or real(p))
    records = run_experiment(tiny_config(), workers=1)
    assert [r.error for r in records] == ["", ""]
    assert len(calls) == 1


def test_run_experiment_records_are_well_formed():
    records = run_experiment(tiny_config())
    assert [r.n_total for r in records] == [16, 32]
    for rec in records:
        assert rec.version == "kdc-0.1.0"
        assert rec.algorithm == "sgm"
        assert rec.error == ""
        assert rec.risk_mean > 0.0
        assert rec.risk_se >= 0.0
        assert rec.replications == 2
        assert rec.m == 2 and rec.n_local == rec.n_total // 2
    assert records[0].data_seed_first == derive_seed(3, TAG_DATA, 16, 0)


def test_run_experiment_risk_decreases_on_this_toy_ramp():
    records = run_experiment(tiny_config(n_list=[16, 64], replications=3))
    assert records[0].risk_mean > records[1].risk_mean


def test_run_experiment_captures_row_errors():
    cfg = ExperimentConfig.from_dict(
        {"regime": "cor3.1", "n_list": [16], "dim": 20, "m_rule": 2, "replications": 1}
    )
    records = run_experiment(cfg)
    assert len(records) == 1
    assert "ConstraintViolationError" in records[0].error
    assert math.isnan(records[0].risk_mean)


def test_a_point_whose_plan_fails_records_it_once_and_runs_no_task(monkeypatch):
    calls = []
    run_point = harness._run_point
    monkeypatch.setattr(harness, "_run_point", lambda *task: calls.append(task) or run_point(*task))
    cfg = ExperimentConfig.from_dict(
        {"regime": "cor3.1", "n_list": [16], "dim": 20, "m_rule": 2, "replications": 3}
    )
    (rec,) = run_experiment(cfg)
    assert calls == []
    assert rec.error == "ConstraintViolationError: regime cor3.1 requires partitions == 1"
    assert rec.wall_ms == 0.0 and math.isnan(rec.risk_mean)
    assert (rec.partition_warning, rec.batch_size, rec.iterations, rec.eta, rec.eta_raw,
            rec.lam) == (None,) * 6
    assert records_from_csv(records_to_csv([rec]))[0].partition_warning is None


def test_a_point_planned_past_the_iteration_bound_is_a_row_error(monkeypatch):
    # At 2 zeta + gamma = 1, cor3.1 plans N^2 steps: 4,096 at N = 64, 2.7e8 at N = 2^14.
    calls = []
    run_point = harness._run_point
    monkeypatch.setattr(harness, "_run_point", lambda *task: calls.append(task) or run_point(*task))
    base = {"regime": "cor3.1", "dim": 20, "zeta": 0.25, "gamma": 0.5, "noise_sd": 0.1}
    first, over = run_experiment(ExperimentConfig.from_dict({**base, "n_list": [64, 2**14]}))
    assert [task[2] for task in calls] == [64]  # (problem, plan, N, m, rep, seed)
    assert over.error.startswith("InvalidParameterError: regime cor3.1 plans 2.684e+08")
    assert over.iterations is None and math.isnan(over.risk_mean)
    (alone,) = run_experiment(ExperimentConfig.from_dict({**base, "n_list": [64]}))
    assert dataclasses.replace(first, wall_ms=0.0) == dataclasses.replace(alone, wall_ms=0.0)
    assert first.error == "" and first.iterations == 4096


def test_a_row_whose_every_fit_fails_keeps_its_plan(monkeypatch):
    def diverge(*args, **kwargs):
        raise DivergenceError("diverged")

    monkeypatch.setattr(harness, "distributed_sgm", diverge)
    records = run_experiment(tiny_config())
    ksq = build_problem(dim=20, noise_sd=0.1).kappa_sq
    for rec in records:
        plan = plan_parameters("cor1.1", rec.n_total, rec.m, 0.5, 1.0, kappa_sq=ksq)
        assert (rec.partition_warning, rec.batch_size, rec.iterations, rec.eta, rec.eta_raw,
                rec.lam) == (plan.partition_warning, plan.batch_size, plan.iterations,
                             plan.eta, plan.eta_raw, None)
        assert rec.error == "DivergenceError: diverged (+1 more)"
        assert math.isnan(rec.risk_mean)


def test_landweber_sweeps_record_an_unreachable_level_as_a_row_error():
    # lambda = scale * N^(-1/2) needs billions of Landweber steps here.
    cfg = ExperimentConfig.from_dict({
        "regime": "cor5", "algorithm": "sa", "filter": "landweber", "n_list": [16, 32],
        "dim": 20, "m_rule": 2, "replications": 1, "scale": 1e-9,
    })
    records = run_experiment(cfg)
    assert [r.n_total for r in records] == [16, 32]
    for rec in records:
        assert rec.error.startswith("InvalidParameterError") and "Landweber steps" in rec.error
        assert math.isnan(rec.risk_mean)


def test_run_experiment_propagates_programming_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("broken trainer")

    monkeypatch.setattr(harness, "distributed_sgm", broken)
    with pytest.raises(TypeError, match="broken trainer"):
        run_experiment(tiny_config(), workers=1)


def test_run_experiment_spectral_path():
    cfg = ExperimentConfig.from_dict(
        {
            "regime": "cor5",
            "algorithm": "sa",
            "filter": "tikhonov",
            "n_list": [32],
            "dim": 20,
            "noise_sd": 0.1,
            "m_rule": 2,
            "replications": 2,
            "base_seed": 9,
        }
    )
    records = run_experiment(cfg)
    assert records[0].algorithm == "sa"
    assert records[0].lam == pytest.approx(32 ** -0.5, rel=1e-12)
    assert records[0].eta is None and records[0].eta_raw is None
    assert records[0].error == ""


def test_landweber_rows_record_the_level_and_steps_the_filter_ran():
    # The schedule's level 1/sum(eta) sits just below the planned lambda.
    base = {"regime": "cor5", "algorithm": "sa", "n_list": [256, 1024], "dim": 50,
            "noise_sd": 0.3, "m_rule": "pow:0.4", "replications": 2}
    landweber_rows = run_experiment(ExperimentConfig.from_dict({**base, "filter": "landweber"}))
    tikhonov_rows = run_experiment(ExperimentConfig.from_dict({**base, "filter": "tikhonov"}))
    ksq = build_problem(dim=50, noise_sd=0.3).kappa_sq
    for lw, tik in zip(landweber_rows, tikhonov_rows):
        planned = plan_parameters("cor5", lw.n_total, lw.m, 0.5, 1.0, kappa_sq=ksq).lam
        spec = filter_from_tag("landweber", ksq, planned)
        assert lw.lam == spec.lam < planned and lw.iterations == len(spec.step_sizes)
        assert tik.lam == planned and tik.iterations is None
        assert lw.error == tik.error == ""


def test_landweber_schedule_matches_its_target_level():
    ksq = 6.5736410355431385
    sched = filter_from_tag("landweber", ksq, 0.05).step_sizes
    eta = 1.0 / (2.0 * 1.01 * ksq)
    assert np.all(sched == eta)
    assert len(sched) == math.ceil(1.0 / (0.05 * eta))
    # The realized level 1/(T eta) sits at or just below the request.
    realized = 1.0 / (len(sched) * eta)
    assert realized <= 0.05 * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# rate tables


def test_emit_rate_table_fits_clean_records(capsys):
    records = run_experiment(tiny_config())
    # Overwrite risks with an exact power law to pin the expected slope.
    doctored = [
        rec.__class__(**{**rec.__dict__, "risk_mean": 4.0 * rec.n_total**-0.5})
        for rec in records
    ]
    doctored.append(
        doctored[0].__class__(**{**doctored[0].__dict__, "n_total": 64, "risk_mean": 0.5})
    )
    fit, table = emit_rate_table(doctored, zeta=0.5, gamma=1.0)
    assert fit.slope == pytest.approx(-0.5, abs=1e-12)
    printed = capsys.readouterr().out
    assert "rate fit:" in printed
    assert "slope=" in printed and "theory=" in printed
    lines = table.splitlines()
    assert lines[0] == "n_total,risk_mean,log_n,log_risk"
    assert sum(ln.split(",")[0].isdigit() for ln in lines) == 3
    assert any(ln.startswith("theory_exponent,-0.5") for ln in lines)
