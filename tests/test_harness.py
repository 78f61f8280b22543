from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from kdc import (
    InvalidParameterError,
    InvalidRegimeError,
    build_problem,
    derive_seed,
    emit_rate_table,
    read_records_csv,
    records_from_csv,
    records_to_csv,
    write_records_csv,
)
from kdc import harness
from kdc.filters import CLAMP_SAFETY, landweber_schedule_for
from kdc.harness import CSV_COLUMNS, ExperimentConfig, resolve_m, run_experiment
from kdc.seeding import TAG_DATA
from kdc.trainers import theory_step_cap

GOLDEN_HEADER = (
    "version,algorithm,regime,n_total,m_requested,m,n_local,batch_size,iterations,"
    "eta,lam,scale,filter,replications,base_seed,data_seed_first,risk_mean,risk_se,"
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


def test_resolve_m_rejects_nonsense():
    with pytest.raises(InvalidParameterError):
        resolve_m(30, 0)
    with pytest.raises(InvalidParameterError):
        resolve_m(30, "pow:-0.5")
    with pytest.raises(InvalidParameterError):
        resolve_m(30, "half")
    with pytest.raises(InvalidParameterError):
        ExperimentConfig(regime="cor1.1", n_list=(16,), m_rule="pow:x")


# ---------------------------------------------------------------------------
# configuration


def test_config_from_dict_defaults_and_aliases():
    cfg = ExperimentConfig.from_dict(
        {"regime": "cor5", "n_list": [64], "algorithm": "sa", "filter": "cutoff", "junk": 1}
    )
    assert cfg.filter_tag == "cutoff"
    assert cfg.dim == 200
    assert cfg.replications == 1


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


@pytest.mark.parametrize("key, value", [
    ("replications", "two"), ("gamma", "1"), ("base_seed", "7"), ("theory_compliant", "yes"),
    ("n_list", ["16"]), ("dim", 20.0), ("scale", True), ("m_rule", 1.5), ("out_path", 3),
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
    assert [rec.eta for rec in records] == pytest.approx([0.016561418094, 0.013801181745], rel=1e-10)


# ---------------------------------------------------------------------------
# record serialization


def test_records_csv_golden_header_and_round_trip(tmp_path):
    records = run_experiment(tiny_config())
    text = records_to_csv(records)
    assert text.splitlines()[0] == GOLDEN_HEADER
    assert tuple(GOLDEN_HEADER.split(",")) == CSV_COLUMNS
    clone = records_from_csv(text)
    assert clone == records

    path = tmp_path / "records.csv"
    write_records_csv(records, str(path))
    assert read_records_csv(str(path)) == records


def test_records_csv_rejects_foreign_headers():
    with pytest.raises(InvalidParameterError):
        records_from_csv("a,b,c\n1,2,3\n")


# ---------------------------------------------------------------------------
# running experiments


def test_run_experiment_is_reproducible_and_parallel_consistent():
    cfg = tiny_config()
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
    assert records[0].eta is None
    assert records[0].error == ""


def test_landweber_schedule_matches_its_target_level():
    ksq = 6.5736410355431385
    sched = landweber_schedule_for(0.05, ksq)
    eta = 1.0 / (2.0 * 1.01 * ksq)
    assert np.all(sched == eta)
    assert len(sched) == math.ceil(1.0 / (0.05 * eta))
    # The realized level 1/(T eta) sits at or just below the request.
    realized = 1.0 / (len(sched) * eta)
    assert realized <= 0.05 * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# rate tables


def test_emit_rate_table_fits_clean_records(tmp_path, capsys):
    records = run_experiment(tiny_config())
    # Overwrite risks with an exact power law to pin the expected slope.
    doctored = [
        rec.__class__(**{**rec.__dict__, "risk_mean": 4.0 * rec.n_total**-0.5})
        for rec in records
    ]
    doctored.append(
        doctored[0].__class__(**{**doctored[0].__dict__, "n_total": 64, "risk_mean": 0.5})
    )
    out = tmp_path / "table.csv"
    fit, table = emit_rate_table(doctored, zeta=0.5, gamma=1.0, out_path=str(out))
    assert fit.slope == pytest.approx(-0.5, abs=1e-12)
    assert out.exists() and out.read_text() == table
    printed = capsys.readouterr().out
    assert "rate fit:" in printed
    assert "slope=" in printed and "theory=" in printed
    lines = table.splitlines()
    assert lines[0] == "n_total,risk_mean,log_n,log_risk"
    assert sum(ln.split(",")[0].isdigit() for ln in lines) == 3
    assert any(ln.startswith("theory_exponent,-0.5") for ln in lines)
